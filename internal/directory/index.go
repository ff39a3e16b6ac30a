package directory

import (
	"sort"
	"strings"
	"sync"
	"unicode/utf8"

	"repro/internal/core"
)

// This file implements the directory's read path at scale: an immutable
// copy-on-write snapshot of the whole population (local + remote) with
// an inverted index over the fields a Query can select on, plus a
// per-snapshot memoized query-result cache.
//
// Writers (advert integration, registration, expiry) mutate the
// authoritative maps under Directory.mu and bump Directory.gen; readers
// serve from the last built snapshot and rebuild lazily — once per
// mutation burst, not per mutation — when the generation moved. A
// binding storm after a node crash therefore contends on nothing: the
// crash bumps the generation once, the first Lookup rebuilds, and every
// subsequent Lookup in the storm is a lock-free pointer load plus a
// result-cache hit.
//
// The index is a candidate pre-filter, never a verdict: every candidate
// is still verified with Query.Matches, so Lookup results are exactly
// those of a brute-force scan (property tested in index_test.go).

// maxQueryCacheEntries bounds one snapshot's memoized query results.
// Snapshots die on the next population change, so the bound only
// matters for pathological many-distinct-query workloads.
const maxQueryCacheEntries = 4096

// kdKey indexes ports by (kind, direction) — the coarse bucket used
// when a port template leaves the data type unconstrained.
type kdKey struct {
	kind core.PortKind
	dir  core.Direction
}

// portKey refines kdKey with the type's major component (lowercased
// ASCII), the selective bucket for concrete templates like "image/jpeg"
// or "visible/*".
type portKey struct {
	kind  core.PortKind
	dir   core.Direction
	major string
}

// snapshot is one immutable view of the population. profiles is sorted
// by (Node, ID) and every posting list holds ascending indices into it,
// so intersections and unions preserve Lookup's documented result
// order for free.
type snapshot struct {
	gen      uint64
	profiles []core.Profile
	pos      map[core.TranslatorID]int32
	nodes    []string // live remote nodes, sorted

	byNode       map[string][]int32
	byPlatform   map[string][]int32 // lowercased ASCII platform
	byDeviceType map[string][]int32
	byKindDir    map[kdKey][]int32
	byPort       map[portKey][]int32
	// oddPlatform / oddPort hold entries whose platform or port-type
	// major is not pure ASCII. Query.Matches compares those fields with
	// EqualFold, whose simple case folding can equate non-ASCII runes
	// with ASCII ones (e.g. U+017F with "s"), so lowercased-key buckets
	// alone could miss them; the odd lists are unioned into every
	// selective candidate set instead.
	oddPlatform []int32
	oddPort     map[kdKey][]int32

	qmu    sync.RWMutex
	qcache map[string][]int32
}

// asciiLower lowercases s, reporting ok=false when s contains bytes
// outside ASCII (the caller must then fall back to a coarser bucket).
func asciiLower(s string) (string, bool) {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return "", false
		}
	}
	return strings.ToLower(s), true
}

// buildSnapshot indexes the given population. profiles must already be
// sorted by (Node, ID) and sealed (never mutated afterwards).
func buildSnapshot(gen uint64, profiles []core.Profile, nodes []string) *snapshot {
	s := &snapshot{
		gen:          gen,
		profiles:     profiles,
		pos:          make(map[core.TranslatorID]int32, len(profiles)),
		nodes:        nodes,
		byNode:       make(map[string][]int32),
		byPlatform:   make(map[string][]int32),
		byDeviceType: make(map[string][]int32),
		byKindDir:    make(map[kdKey][]int32),
		byPort:       make(map[portKey][]int32),
		oddPort:      make(map[kdKey][]int32),
		qcache:       make(map[string][]int32),
	}
	for i := range profiles {
		p := &profiles[i]
		ix := int32(i)
		s.pos[p.ID] = ix
		s.byNode[p.Node] = append(s.byNode[p.Node], ix)
		if plat, ok := asciiLower(p.Platform); ok {
			s.byPlatform[plat] = append(s.byPlatform[plat], ix)
		} else {
			s.oddPlatform = append(s.oddPlatform, ix)
		}
		if p.DeviceType != "" {
			s.byDeviceType[p.DeviceType] = append(s.byDeviceType[p.DeviceType], ix)
		}
		// A profile appears at most once per posting list even when
		// several ports share a bucket.
		seenKD := make(map[kdKey]bool, 4)
		seenPK := make(map[portKey]bool, 4)
		seenOdd := make(map[kdKey]bool, 2)
		for _, port := range p.Shape.Ports() {
			kd := kdKey{port.Kind, port.Direction}
			if !seenKD[kd] {
				seenKD[kd] = true
				s.byKindDir[kd] = append(s.byKindDir[kd], ix)
			}
			major, _ := port.Type.Split()
			if lm, ok := asciiLower(major); ok {
				pk := portKey{port.Kind, port.Direction, lm}
				if !seenPK[pk] {
					seenPK[pk] = true
					s.byPort[pk] = append(s.byPort[pk], ix)
				}
			} else if !seenOdd[kd] {
				seenOdd[kd] = true
				s.oddPort[kd] = append(s.oddPort[kd], ix)
			}
		}
	}
	return s
}

// intersect merges two ascending posting lists.
func intersect(a, b []int32) []int32 {
	out := make([]int32, 0, min(len(a), len(b)))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return out
}

// unionAll merges ascending posting lists into one ascending,
// duplicate-free list.
func unionAll(lists [][]int32) []int32 {
	switch len(lists) {
	case 0:
		return nil
	case 1:
		return lists[0]
	}
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	out := make([]int32, 0, total)
	for _, l := range lists {
		out = append(out, l...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	w := 0
	for i, v := range out {
		if i == 0 || v != out[w-1] {
			out[w] = v
			w++
		}
	}
	return out[:w]
}

// kindsOf expands a template's kind constraint (zero = any).
func kindsOf(k core.PortKind) []core.PortKind {
	if k != 0 {
		return []core.PortKind{k}
	}
	return []core.PortKind{core.Digital, core.Physical}
}

// dirsOf expands a template's direction constraint (zero = any).
func dirsOf(d core.Direction) []core.Direction {
	if d != 0 {
		return []core.Direction{d}
	}
	return []core.Direction{core.Input, core.Output}
}

// portCandidates returns a superset of the profiles owning a port that
// satisfies the template.
func (s *snapshot) portCandidates(t core.PortTemplate) []int32 {
	major := ""
	if t.Type != "" {
		major, _ = t.Type.Split()
	}
	lm, selective := "", false
	if major != "" && major != "*" {
		lm, selective = asciiLower(major)
	}
	var lists [][]int32
	for _, k := range kindsOf(t.Kind) {
		for _, dir := range dirsOf(t.Direction) {
			kd := kdKey{k, dir}
			if !selective {
				// No usable major component: every port of this
				// kind/direction is a candidate.
				lists = append(lists, s.byKindDir[kd])
				continue
			}
			lists = append(lists, s.byPort[portKey{k, dir, lm}], s.oddPort[kd])
		}
	}
	return unionAll(lists)
}

// candidates computes the index's candidate set for a query. all=true
// means no indexed criterion narrowed the search (scan everything).
func (s *snapshot) candidates(q core.Query) (list []int32, all bool) {
	all = true
	narrow := func(set []int32) {
		if all {
			list, all = set, false
			return
		}
		list = intersect(list, set)
	}
	if q.Node != "" {
		narrow(s.byNode[q.Node])
	}
	if q.Platform != "" {
		if plat, ok := asciiLower(q.Platform); ok {
			narrow(unionAll([][]int32{s.byPlatform[plat], s.oddPlatform}))
		}
		// Non-ASCII query platform: EqualFold semantics are too loose to
		// bucket safely; leave it to the verification scan.
	}
	if q.DeviceType != "" {
		narrow(s.byDeviceType[q.DeviceType])
	}
	for _, t := range q.Ports {
		narrow(s.portCandidates(t))
	}
	return list, all
}

// lookup returns the (ascending, hence result-ordered) indices of
// profiles matching the query, memoized per snapshot. Every candidate
// is verified with Query.Matches, so the result set is exactly the
// brute-force scan's.
func (s *snapshot) lookup(q core.Query, met *dirMetrics) []int32 {
	key := q.CacheKey()
	s.qmu.RLock()
	cached, ok := s.qcache[key]
	s.qmu.RUnlock()
	if ok {
		met.queryHits.Inc()
		return cached
	}
	met.queryMisses.Inc()

	cand, all := s.candidates(q)
	var out []int32
	if all {
		for i := range s.profiles {
			if q.Matches(s.profiles[i]) {
				out = append(out, int32(i))
			}
		}
	} else {
		for _, i := range cand {
			if q.Matches(s.profiles[i]) {
				out = append(out, i)
			}
		}
	}
	s.qmu.Lock()
	if len(s.qcache) < maxQueryCacheEntries {
		s.qcache[key] = out
	}
	s.qmu.Unlock()
	return out
}

// view returns the current snapshot, rebuilding it if the population
// generation moved since the last build. Rebuilds are serialized and
// amortized across a mutation burst; steady-state readers pay two
// atomic loads.
func (d *Directory) view() *snapshot {
	if s := d.snap.Load(); s != nil && s.gen == d.gen.Load() {
		return s
	}
	d.rebuildMu.Lock()
	defer d.rebuildMu.Unlock()
	if s := d.snap.Load(); s != nil && s.gen == d.gen.Load() {
		return s
	}
	// Generation is read before the state: if a writer sneaks in between
	// the two, the snapshot carries newer state under an older tag and
	// the next read simply rebuilds again — never the reverse (a fresh
	// tag on stale state).
	gen := d.gen.Load()
	d.mu.RLock()
	profiles := make([]core.Profile, 0, len(d.local)+len(d.remote))
	for _, e := range d.local {
		profiles = append(profiles, e.profile)
	}
	for _, e := range d.remote {
		profiles = append(profiles, e.profile)
	}
	nodes := make([]string, 0, len(d.nodes))
	for n := range d.nodes {
		nodes = append(nodes, n)
	}
	d.mu.RUnlock()
	sort.Slice(profiles, func(i, j int) bool {
		if profiles[i].Node != profiles[j].Node {
			return profiles[i].Node < profiles[j].Node
		}
		return profiles[i].ID < profiles[j].ID
	})
	sort.Strings(nodes)
	s := buildSnapshot(gen, profiles, nodes)
	d.snap.Store(s)
	d.met.indexSize.Set(int64(len(profiles)))
	return s
}
