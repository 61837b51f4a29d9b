package shard

import (
	"fmt"
	"slices"
	"unsafe"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/tune"
)

// env is what an engine's regions share with it: the geometry, the
// lattice (fixed at first build) and the instrument set, so per-region
// events aggregate into engine-level series.
type env[P comparable] struct {
	geo   *geo[P]
	hints core.WorkloadHints
	lat   lattice
	ins   instruments
}

// region is one shard of the engine: a compacted local arena (object
// geometry and owner ids) in front of a tune-selected inner index over
// local slot ids. It holds every object whose span covers it — exactly
// the points inside it, a replica of every MBR overlapping it — and
// nothing else: the arena is rebuilt with its members on every build.
type region[P comparable] struct {
	*env[P]
	cx, cy int32
	sid    int
	frame  geom.Rect

	// The inner index and its buffered query kernel (native when the
	// chosen family supports core.QueryAppender), bound at first build.
	choice      tune.Choice
	inner       core.IndexOf[P]
	innerAppend func(r geom.Rect, buf []uint32) []uint32

	// owner maps local slot -> global id, in ascending id order; items
	// holds each slot's geometry.
	owner []uint32
	items []P
}

func newRegion[P comparable](e *env[P], sid int) *region[P] {
	cx, cy := sid%e.lat.side, sid/e.lat.side
	return &region[P]{
		env:   e,
		cx:    int32(cx),
		cy:    int32(cy),
		sid:   sid,
		frame: e.lat.regionFrame(cx, cy),
	}
}

// holds reports whether an object with geometry p is a member of this
// region — the one membership rule, for routing, builds and audits.
func (s *region[P]) holds(p P) bool { return s.geo.span(&s.lat, p).has(s.cx, s.cy) }

// owns reports whether this region is the one that counts an object
// with geometry p: the region of the first cell of p's span — for a
// point its only region, for an MBR the region of its min corner.
func (s *region[P]) owns(p P) bool {
	sp := s.geo.span(&s.lat, p)
	return sp.x0 == s.cx && sp.y0 == s.cy
}

// buildMembers (re)builds the region over the given member ids of the
// full snapshot. The first build samples the members and picks the
// inner family via internal/tune; later builds reuse the choice (and
// the inner's arenas).
func (s *region[P]) buildMembers(all []P, members []uint32) {
	n := len(members)
	s.items = slices.Grow(s.items[:0], n)[:n]
	s.owner = slices.Grow(s.owner[:0], n)[:n]
	for i, gid := range members {
		s.items[i] = all[gid]
		s.owner[i] = gid
	}
	if s.inner == nil {
		s.choice = s.geo.choose(s.geo.sample(s.items, s.frame, s.hints))
		s.inner = s.geo.build(s.choice, core.Params{Bounds: s.frame, NumPoints: n, Hints: s.hints})
		s.innerAppend = core.QueryAppendOf(s.inner, s.inner.Query)
	}
	s.inner.Build(s.items)
}

// queryAppend is the region's query kernel: the inner appends local slots
// to the tail of buf, then the region rewrites that tail in place —
// translating slots to global ids (and, under dedup, dropping replicas
// whose reference point another region owns) — so the whole path does
// zero allocations once buf has capacity.
//
//joinlint:hotpath
func (s *region[P]) queryAppend(r geom.Rect, buf []uint32, dedup bool) []uint32 {
	tail := len(buf)
	buf = s.innerAppend(r, buf)
	if dedup {
		return s.geo.refAppend(s, r, buf, tail)
	}
	owner := s.owner
	for i, lid := range buf[tail:] {
		buf[tail+i] = owner[lid]
	}
	return buf
}

// CheckInvariants audits the region for the router's CheckInvariants:
// arena/owner accounting, the membership invariant (every member's
// geometry spans this region), and the inner index's own invariants.
func (s *region[P]) CheckInvariants() error {
	errf := func(format string, args ...any) error {
		return fmt.Errorf("shard: region(%d,%d) "+format, append([]any{s.cx, s.cy}, args...)...)
	}
	if len(s.items) != len(s.owner) {
		return errf("arena %d vs owner %d", len(s.items), len(s.owner))
	}
	for lid, p := range s.items {
		if !s.holds(p) {
			return errf("member %d at %v outside region", s.owner[lid], p)
		}
	}
	if c, ok := s.inner.(core.Counter); ok && c.Len() != len(s.items) {
		return errf("inner holds %d entries, arena %d", c.Len(), len(s.items))
	}
	if ic, ok := s.inner.(core.InvariantChecker); ok {
		if err := ic.CheckInvariants(); err != nil {
			return errf("inner: %w", err)
		}
	}
	return nil
}

func (s *region[P]) memoryBytes() int64 {
	var zero P
	b := int64(len(s.owner))*4 + int64(len(s.items))*int64(unsafe.Sizeof(zero))
	if mr, ok := s.inner.(core.MemoryReporter); ok {
		b += mr.MemoryBytes()
	}
	return b
}
