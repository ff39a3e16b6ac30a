package core

import (
	"testing"
	"testing/quick"
)

func tvProfile() Profile {
	return Profile{
		ID:         MakeTranslatorID("h2", "upnp", "tv-1"),
		Name:       "Living-room TV",
		Platform:   "upnp",
		DeviceType: "urn:schemas-upnp-org:device:MediaRenderer:1",
		Node:       "h2",
		Shape:      tvShape(),
		Attributes: map[string]string{"room": "living"},
	}
}

func cameraProfile() Profile {
	return Profile{
		ID:       MakeTranslatorID("h1", "bluetooth", "cam-1"),
		Name:     "BIP Camera",
		Platform: "bluetooth",
		Node:     "h1",
		Shape:    cameraShape(),
	}
}

func TestQueryEmptyMatchesAll(t *testing.T) {
	var q Query
	if !q.Empty() {
		t.Fatal("zero query not Empty")
	}
	if !q.Matches(tvProfile()) || !q.Matches(cameraProfile()) {
		t.Fatal("empty query should match everything")
	}
}

func TestQueryPlatform(t *testing.T) {
	q := Query{Platform: "UPNP"} // case-insensitive
	if !q.Matches(tvProfile()) {
		t.Error("platform query should match TV")
	}
	if q.Matches(cameraProfile()) {
		t.Error("platform query should not match camera")
	}
}

func TestQueryDeviceType(t *testing.T) {
	q := Query{DeviceType: "urn:schemas-upnp-org:device:MediaRenderer:1"}
	if !q.Matches(tvProfile()) || q.Matches(cameraProfile()) {
		t.Error("device type query mismatch")
	}
}

func TestQueryNameContains(t *testing.T) {
	q := Query{NameContains: "living"}
	if !q.Matches(tvProfile()) {
		t.Error("case-insensitive substring should match")
	}
	if q.Matches(cameraProfile()) {
		t.Error("camera should not match 'living'")
	}
}

func TestQueryNode(t *testing.T) {
	q := Query{Node: "h1"}
	if q.Matches(tvProfile()) || !q.Matches(cameraProfile()) {
		t.Error("node query mismatch")
	}
}

func TestQueryAttributes(t *testing.T) {
	q := Query{Attributes: map[string]string{"room": "living"}}
	if !q.Matches(tvProfile()) {
		t.Error("attribute query should match TV")
	}
	q = Query{Attributes: map[string]string{"room": "kitchen"}}
	if q.Matches(tvProfile()) {
		t.Error("wrong attribute value matched")
	}
}

func TestQueryExcludeID(t *testing.T) {
	tv := tvProfile()
	q := Query{ExcludeID: tv.ID}
	if q.Matches(tv) {
		t.Error("excluded ID matched")
	}
	if !q.Matches(cameraProfile()) {
		t.Error("non-excluded profile should match")
	}
}

func TestQueryPorts(t *testing.T) {
	// The paper's example: view a jpeg "in one way or another" — input
	// port of the document's MIME type plus physical output visible/*.
	q := QueryAccepting("image/jpeg", "visible/*")
	if !q.Matches(tvProfile()) {
		t.Error("TV should satisfy view query")
	}
	if q.Matches(cameraProfile()) {
		t.Error("camera should not satisfy view query")
	}

	prod := QueryProducing("image/jpeg")
	if !prod.Matches(cameraProfile()) {
		t.Error("camera should satisfy producer query")
	}
	if prod.Matches(tvProfile()) {
		t.Error("TV should not satisfy producer query")
	}
}

func TestQueryConjunction(t *testing.T) {
	q := Query{Platform: "upnp", NameContains: "living", Node: "h2"}
	if !q.Matches(tvProfile()) {
		t.Error("all-criteria query should match TV")
	}
	q.Node = "h9"
	if q.Matches(tvProfile()) {
		t.Error("one failing criterion must fail the query")
	}
}

func TestPortTemplateZeroMatchesAnything(t *testing.T) {
	var tmpl PortTemplate
	ports := append(tvShape().Ports(), cameraShape().Ports()...)
	for _, p := range ports {
		if !tmpl.MatchesPort(p) {
			t.Errorf("zero template should match %v", p)
		}
	}
}

func TestQueryString(t *testing.T) {
	if got := (Query{}).String(); got != "query{any}" {
		t.Fatalf("String() = %q", got)
	}
	q := Query{Platform: "upnp", Ports: []PortTemplate{{Kind: Digital, Direction: Input, Type: "image/*"}}}
	got := q.String()
	if got == "query{any}" {
		t.Fatalf("String() = %q", got)
	}
}

// TestQueryMonotoneProperty: adding criteria can only shrink the match
// set.
func TestQueryMonotoneProperty(t *testing.T) {
	profiles := []Profile{tvProfile(), cameraProfile()}
	f := func(pickPlatform, pickName, pickNode bool) bool {
		var q Query
		base := 0
		for _, p := range profiles {
			if q.Matches(p) {
				base++
			}
		}
		if pickPlatform {
			q.Platform = "upnp"
		}
		if pickName {
			q.NameContains = "camera"
		}
		if pickNode {
			q.Node = "h1"
		}
		narrowed := 0
		for _, p := range profiles {
			if q.Matches(p) {
				narrowed++
			}
		}
		return narrowed <= base
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQueryCacheKeyDistinguishesFields: CacheKey must be injective over
// query-visible state — field values that could collide under naive
// string joining (shared substrings, separators inside values, values
// shifted between fields) must produce distinct keys.
func TestQueryCacheKeyDistinguishesFields(t *testing.T) {
	qs := []Query{
		{},
		{Platform: "ab"},
		{DeviceType: "ab"},
		{NameContains: "ab"},
		{Node: "ab"},
		{ExcludeID: "ab"},
		{Platform: "a", DeviceType: "b"},
		{Platform: "a:b"},
		{Platform: "a", Node: "b"},
		{Attributes: map[string]string{"a": "b"}},
		{Attributes: map[string]string{"a:b": ""}},
		{Attributes: map[string]string{"": "ab"}},
		{Ports: []PortTemplate{{Type: "ab"}}},
		{Ports: []PortTemplate{{Kind: Digital, Type: "ab"}}},
		{Ports: []PortTemplate{{Direction: Input, Type: "ab"}}},
		{Ports: []PortTemplate{{Direction: Output, Type: "ab"}}},
		{Ports: []PortTemplate{{Type: "a"}, {Type: "b"}}},
	}
	seen := map[string]int{}
	for i, q := range qs {
		k := q.CacheKey()
		if j, dup := seen[k]; dup {
			t.Fatalf("queries %d and %d share cache key %q", j, i, k)
		}
		seen[k] = i
	}
	// Attribute map iteration order must not leak into the key.
	q1 := Query{Attributes: map[string]string{"a": "1", "b": "2", "c": "3", "d": "4"}}
	q2 := Query{Attributes: map[string]string{"d": "4", "c": "3", "b": "2", "a": "1"}}
	for i := 0; i < 32; i++ {
		if q1.CacheKey() != q2.CacheKey() {
			t.Fatal("cache key depends on attribute map order")
		}
	}
}

// Summarize must widen, never narrow: every profile the original query
// matches must also match the summary.
func TestQuerySummarizeOverApproximates(t *testing.T) {
	p := Profile{ID: "n1/upnp/tv", Name: "TV", Platform: "upnp", DeviceType: "display", Node: "n1"}
	q := Query{Platform: "upnp", ExcludeID: "n1/upnp/tv"}
	if q.Matches(p) {
		t.Fatal("sanity: ExcludeID should reject the profile")
	}
	s := q.Summarize()
	if !s.Matches(p) {
		t.Fatal("summary must drop ExcludeID and match the profile")
	}
	if s.ExcludeID != "" {
		t.Fatalf("summary retains ExcludeID %q", s.ExcludeID)
	}
	// All other criteria survive.
	if !s.Matches(p) || s.Matches(Profile{ID: "n1/ble/tag", Platform: "ble"}) {
		t.Fatal("summary must keep the platform criterion")
	}
}

// Fingerprint must be stable across attribute map order and distinguish
// distinct predicates.
func TestQueryFingerprint(t *testing.T) {
	q1 := Query{Attributes: map[string]string{"a": "1", "b": "2"}}
	q2 := Query{Attributes: map[string]string{"b": "2", "a": "1"}}
	if q1.Fingerprint() != q2.Fingerprint() {
		t.Fatal("fingerprint depends on attribute order")
	}
	if (Query{Platform: "upnp"}).Fingerprint() == (Query{Platform: "ble"}).Fingerprint() {
		t.Fatal("distinct queries share a fingerprint")
	}
	if (Query{}).Fingerprint() == 0 {
		t.Fatal("zero query should still hash to the FNV offset basis, not 0")
	}
}
