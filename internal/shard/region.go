package shard

import (
	"fmt"
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
// geometry, owner ids, free list) in front of a tune-selected inner
// index over local slot ids. It holds every object whose span covers it
// — exactly the points inside it, a replica of every MBR overlapping it.
type region[P comparable] struct {
	*env[P]
	cx, cy int32
	sid    int
	frame  geom.Rect
	park   P

	// The inner index and its buffered query kernel (native when the
	// chosen family supports core.QueryAppender), bound at first build.
	choice      tune.Choice
	inner       core.IndexOf[P]
	innerAppend func(r geom.Rect, buf []uint32) []uint32

	// lidOf maps global id -> local slot (NONE when not a member);
	// owner is the inverse (NONE for parked slots); items holds each
	// slot's geometry (the park geometry for dead slots).
	lidOf []uint32
	owner []uint32
	items []P
	free  []uint32
	live  int
}

func newRegion[P comparable](e *env[P], sid int) *region[P] {
	cx, cy := sid%e.lat.side, sid/e.lat.side
	frame := e.lat.regionFrame(cx, cy)
	return &region[P]{
		env:   e,
		cx:    int32(cx),
		cy:    int32(cy),
		sid:   sid,
		frame: frame,
		park:  e.geo.park(frame.Center()),
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
	if len(s.lidOf) != len(all) {
		s.lidOf = make([]uint32, len(all))
	}
	n := len(members)
	capa := n + n/8 + 8 // parked-slot slack for immigration before a regrow
	if cap(s.items) < capa {
		s.items = make([]P, capa)
		s.owner = make([]uint32, capa)
	}
	s.items = s.items[:capa]
	s.owner = s.owner[:capa]
	for i, gid := range members {
		s.items[i] = all[gid]
		s.owner[i] = gid
		s.lidOf[gid] = uint32(i)
	}
	s.free = s.free[:0]
	for i := capa - 1; i >= n; i-- {
		s.items[i] = s.park
		s.owner[i] = NONE
		s.free = append(s.free, uint32(i))
	}
	s.live = n
	if s.inner == nil {
		s.choice = s.geo.choose(s.geo.sample(s.items[:n], s.frame, s.hints))
		s.inner = s.geo.build(s.choice, core.Params{Bounds: s.frame, NumPoints: capa, Hints: s.hints})
		s.innerAppend = core.QueryAppendOf(s.inner, s.inner.Query)
	}
	s.inner.Build(s.items)
}

// lidFor returns id's live slot in this region, or NONE. lidOf entries
// are NOT reset between builds (a full reset costs side^2*n per tick
// across regions), so a hit is validated against the owner table: owner
// slots only ever hold current member ids, and members get a fresh
// lidOf entry at every build, so a stale entry can never validate.
// (NONE compares >= len(owner), so no separate sentinel check.)
func (s *region[P]) lidFor(id uint32) uint32 {
	if lid := s.lidOf[id]; int(lid) < len(s.owner) && s.owner[lid] == id {
		return lid
	}
	return NONE
}

// queryAppend is the region's query kernel: the inner appends local slots
// to the tail of buf, then the region compacts that tail in place —
// translating slots to global ids and dropping parked slots (and, under
// dedup, replicas whose reference point another region owns) — so the
// whole path does zero allocations once buf has capacity.
//
//joinlint:hotpath
func (s *region[P]) queryAppend(r geom.Rect, buf []uint32, dedup bool) []uint32 {
	tail := len(buf)
	buf = s.innerAppend(r, buf)
	if dedup {
		return s.geo.refAppend(s, r, buf, tail)
	}
	owner := s.owner
	w := tail
	for _, lid := range buf[tail:] {
		if g := owner[lid]; g != NONE {
			buf[w] = g
			w++
		}
	}
	return buf[:w]
}

// Update handles a move for any of the four membership cases; the
// region's own tables are the authority, the passed old geometry is only
// trusted by the router for routing.
func (s *region[P]) Update(id uint32, _, new P) {
	lid := s.lidFor(id)
	inNew := s.holds(new)
	switch {
	case lid != NONE && inNew: // in-place
		s.inner.Update(lid, s.items[lid], new)
		s.items[lid] = new
	case lid != NONE: // the object (or this replica of it) leaves: park the slot
		s.inner.Update(lid, s.items[lid], s.park)
		s.items[lid] = s.park
		s.owner[lid] = NONE
		s.lidOf[id] = NONE
		s.free = append(s.free, lid)
		s.live--
		s.ins.parked.Inc()
	case inNew: // it arrives: revive a parked slot
		if len(s.free) == 0 {
			s.grow()
		}
		lid = s.free[len(s.free)-1]
		s.free = s.free[:len(s.free)-1]
		s.inner.Update(lid, s.items[lid], new)
		s.items[lid] = new
		s.owner[lid] = id
		s.lidOf[id] = lid
		s.live++
		s.ins.revived.Inc()
	}
}

// grow extends the arena with parked slots and rebuilds the inner —
// region-local, so a parallel batch hitting one region's capacity never
// touches another shard.
func (s *region[P]) grow() {
	old := len(s.items)
	add := old/4 + 8
	for i := 0; i < add; i++ {
		s.items = append(s.items, s.park)
		s.owner = append(s.owner, NONE)
		s.free = append(s.free, uint32(old+i))
	}
	s.inner.Build(s.items)
}

// CheckInvariants audits the region for the router's CheckInvariants:
// arena/owner/free accounting, the membership invariant (every live
// slot's geometry spans this region), and the inner index's own
// invariants.
func (s *region[P]) CheckInvariants() error {
	errf := func(format string, args ...any) error {
		return fmt.Errorf("shard: region(%d,%d) "+format, append([]any{s.cx, s.cy}, args...)...)
	}
	if len(s.items) != len(s.owner) {
		return errf("arena %d vs owner %d", len(s.items), len(s.owner))
	}
	if s.live+len(s.free) != len(s.items) {
		return errf("live %d + free %d != cap %d", s.live, len(s.free), len(s.items))
	}
	liveSeen := 0
	for lid, g := range s.owner {
		if g == NONE {
			if s.items[lid] != s.park {
				return errf("dead slot %d not parked", lid)
			}
			continue
		}
		liveSeen++
		if int(g) >= len(s.lidOf) || s.lidOf[g] != uint32(lid) {
			return errf("slot %d owner %d not inverse-mapped", lid, g)
		}
		if !s.holds(s.items[lid]) {
			return errf("member %d at %v outside region", g, s.items[lid])
		}
	}
	if liveSeen != s.live {
		return errf("counted %d live, tracked %d", liveSeen, s.live)
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
	b := int64(len(s.lidOf)+len(s.owner)+len(s.free))*4 + int64(len(s.items))*int64(unsafe.Sizeof(s.park))
	if mr, ok := s.inner.(core.MemoryReporter); ok {
		b += mr.MemoryBytes()
	}
	return b
}
