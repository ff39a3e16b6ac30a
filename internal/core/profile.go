package core

import (
	"fmt"
	"sort"
	"strings"
)

// TranslatorID uniquely identifies a translator instance across all
// uMiddle runtimes. The convention is "<node>/<platform>/<local-id>".
type TranslatorID string

// MakeTranslatorID builds the canonical translator ID.
func MakeTranslatorID(node, platform, local string) TranslatorID {
	return TranslatorID(node + "/" + platform + "/" + local)
}

// Node returns the runtime node component of the ID.
func (id TranslatorID) Node() string {
	if i := strings.IndexByte(string(id), '/'); i >= 0 {
		return string(id)[:i]
	}
	return ""
}

// PortRef names one port of one translator; it is the endpoint type used
// by the transport APIs (paper Figure 7).
type PortRef struct {
	// Translator is the owning translator.
	Translator TranslatorID `json:"translator"`
	// Port is the port name within the translator's shape.
	Port string `json:"port"`
}

// String renders "translator#port".
func (r PortRef) String() string { return string(r.Translator) + "#" + r.Port }

// Profile is the advertised description of a translator: identity,
// provenance, and shape. Profiles are what the directory module
// exchanges between runtimes and what Lookup returns (paper Figure 6).
type Profile struct {
	// ID is the globally unique translator identity.
	ID TranslatorID `json:"id"`
	// Name is a human-readable device name ("Living-room TV").
	Name string `json:"name"`
	// Platform names the native platform the device was bridged from
	// ("upnp", "bluetooth", "rmi", "mediabroker", "motes", "webservice",
	// or "umiddle" for native uMiddle services).
	Platform string `json:"platform"`
	// DeviceType is the native device type identifier, kept for
	// diagnostics and coarse queries (e.g.
	// "urn:schemas-upnp-org:device:BinaryLight:1").
	DeviceType string `json:"deviceType,omitempty"`
	// Node is the uMiddle runtime hosting the translator.
	Node string `json:"node"`
	// Shape is the translator's port set.
	Shape Shape `json:"-"`
	// ShapePorts carries the shape for JSON marshaling.
	ShapePorts []Port `json:"ports"`
	// Attributes carries free-form metadata (location, vendor, G2
	// coordinates, ...).
	Attributes map[string]string `json:"attributes,omitempty"`
}

// Validate checks the profile's structural invariants.
func (p Profile) Validate() error {
	if p.ID == "" {
		return fmt.Errorf("core: profile has empty ID")
	}
	if p.Platform == "" {
		return fmt.Errorf("core: profile %q has empty platform", p.ID)
	}
	if p.Node == "" {
		return fmt.Errorf("core: profile %q has empty node", p.ID)
	}
	for _, port := range p.Shape.ports {
		if err := port.Validate(); err != nil {
			return fmt.Errorf("core: profile %q: %w", p.ID, err)
		}
	}
	return nil
}

// Attr returns an attribute value ("" when absent).
func (p Profile) Attr(key string) string { return p.Attributes[key] }

// WithAttr returns a copy of the profile with the attribute set.
func (p Profile) WithAttr(key, value string) Profile {
	attrs := make(map[string]string, len(p.Attributes)+1)
	for k, v := range p.Attributes {
		attrs[k] = v
	}
	attrs[key] = value
	p.Attributes = attrs
	return p
}

// Clone returns a deep copy of the profile.
func (p Profile) Clone() Profile {
	cp := p
	cp.Shape = Shape{ports: p.Shape.Ports()}
	cp.ShapePorts = p.Shape.Ports()
	if p.Attributes != nil {
		cp.Attributes = make(map[string]string, len(p.Attributes))
		for k, v := range p.Attributes {
			cp.Attributes[k] = v
		}
	}
	return cp
}

// SyncShapePorts refreshes the JSON-visible port list from Shape; call
// before marshaling.
func (p *Profile) SyncShapePorts() { p.ShapePorts = p.Shape.Ports() }

// RestoreShape rebuilds Shape from ShapePorts; call after unmarshaling.
func (p *Profile) RestoreShape() error {
	s, err := NewShape(p.ShapePorts...)
	if err != nil {
		return err
	}
	p.Shape = s
	return nil
}

// Fingerprint returns a stable FNV-1a hash over every profile field a
// Query can discriminate on (identity, provenance, attributes, shape).
// A re-announce that changes any of them changes the fingerprint, which
// is how the directory's anti-entropy state digests (XOR of entry
// fingerprints) detect a changed entry under a stable ID.
func (p Profile) Fingerprint() uint64 {
	h := fnvOffset
	h = fnvString(h, string(p.ID))
	h = fnvString(h, p.Name)
	h = fnvString(h, p.Platform)
	h = fnvString(h, p.DeviceType)
	h = fnvString(h, p.Node)
	if len(p.Attributes) > 0 {
		keys := make([]string, 0, len(p.Attributes))
		for k := range p.Attributes {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			h = fnvString(h, k)
			h = fnvString(h, p.Attributes[k])
		}
	}
	h = (h ^ p.Shape.Fingerprint()) * fnvPrime
	return h
}

// String renders a compact profile summary.
func (p Profile) String() string {
	attrs := make([]string, 0, len(p.Attributes))
	for k, v := range p.Attributes {
		attrs = append(attrs, k+"="+v)
	}
	sort.Strings(attrs)
	return fmt.Sprintf("%s[%s %s %s]", p.ID, p.Platform, p.Name, strings.Join(attrs, ","))
}
