package core

import "repro/internal/geom"

// BruteForce is the reference technique: no index at all, every query
// scans the whole snapshot. It is not part of the paper's lineup; it
// exists as the correctness oracle the real techniques are validated
// against, and as a floor for sanity-checking speedups.
type BruteForce struct {
	pts []geom.Point
}

// NewBruteForce returns the oracle technique.
func NewBruteForce() *BruteForce { return &BruteForce{} }

// Name implements Index.
func (b *BruteForce) Name() string { return "Brute Force" }

// Build implements Index by retaining the snapshot.
func (b *BruteForce) Build(pts []geom.Point) { b.pts = pts }

// Query implements Index with a full scan.
func (b *BruteForce) Query(r geom.Rect, emit func(id uint32)) {
	for i := range b.pts {
		if b.pts[i].In(r) {
			emit(uint32(i))
		}
	}
}

// QueryAppend implements QueryAppender with the same full scan, free of
// the per-result indirect call.
//
//joinlint:hotpath
func (b *BruteForce) QueryAppend(r geom.Rect, buf []uint32) []uint32 {
	for i := range b.pts {
		if b.pts[i].In(r) {
			buf = append(buf, uint32(i))
		}
	}
	return buf
}

// Update implements Index; the snapshot refresh covers it.
func (b *BruteForce) Update(id uint32, old, new geom.Point) {}

// Len implements Counter.
func (b *BruteForce) Len() int { return len(b.pts) }

// BruteForceBoxes is the box-join oracle: no index, every query scans
// every MBR with a nested-loop intersection test. Trivially
// duplicate-free, it is the reference all BoxIndex implementations are
// validated against.
type BruteForceBoxes struct {
	rects []geom.Rect
}

// NewBruteForceBoxes returns the box oracle technique.
func NewBruteForceBoxes() *BruteForceBoxes { return &BruteForceBoxes{} }

// Name implements BoxIndex.
func (b *BruteForceBoxes) Name() string { return "Brute Force Boxes" }

// Build implements BoxIndex by retaining the snapshot.
func (b *BruteForceBoxes) Build(rects []geom.Rect) { b.rects = rects }

// Query implements BoxIndex with a full nested-loop scan.
func (b *BruteForceBoxes) Query(r geom.Rect, emit func(id uint32)) {
	for i := range b.rects {
		if b.rects[i].Intersects(r) {
			emit(uint32(i))
		}
	}
}

// QueryAppend implements QueryAppender.
//
//joinlint:hotpath
func (b *BruteForceBoxes) QueryAppend(r geom.Rect, buf []uint32) []uint32 {
	for i := range b.rects {
		if b.rects[i].Intersects(r) {
			buf = append(buf, uint32(i))
		}
	}
	return buf
}

// Update implements BoxIndex; the snapshot refresh covers it.
func (b *BruteForceBoxes) Update(id uint32, old, new geom.Rect) {}

// Len implements Counter.
func (b *BruteForceBoxes) Len() int { return len(b.rects) }
