package epoch

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/xrand"
)

// TestFoldCoversEveryMove holds both batch folds to the properties the
// digest oracles rely on, at every batch length from 0 to 9 — each lane
// of the four-chain fold, with and without a tail: changing any one
// move's ID or new geometry changes the digest, swapping two moves of
// one ID (a merged batch, where only the final move is served) changes
// it, and appending a move changes it.
func TestFoldCoversEveryMove(t *testing.T) {
	r := xrand.New(71)
	pts := randomPoints(r, 10)
	rects := randomBoxes(r, 10)
	pointMoves := make([]geom.Move, len(pts))
	boxMoves := make([]geom.BoxMove, len(rects))
	for i := range pts {
		pointMoves[i] = geom.Move{ID: uint32(3 * i), New: pts[i]}
		boxMoves[i] = geom.BoxMove{ID: uint32(3 * i), New: rects[i]}
	}
	t.Run("points", func(t *testing.T) {
		foldCoverage(t, FoldMoves, pointMoves, func(m *geom.Move) { m.New.X++ }, func(m *geom.Move) *uint32 { return &m.ID })
	})
	t.Run("boxes", func(t *testing.T) {
		foldCoverage(t, FoldBoxMoves, boxMoves, func(m *geom.BoxMove) { m.New.MaxY++ }, func(m *geom.BoxMove) *uint32 { return &m.ID })
	})
}

// foldCoverage runs TestFoldCoversEveryMove's cases over one fold: all
// is a batch of distinct moves with distinct IDs, nudge changes a move's
// new geometry and id addresses its ID.
func foldCoverage[M any](t *testing.T, fold func(uint64, []M) uint64, all []M, nudge func(*M), id func(*M) *uint32) {
	const seed = 0x5eed
	for n := 0; n < len(all); n++ {
		moves := append([]M(nil), all[:n]...)
		want := fold(seed, moves)
		if fold(seed, all[:n+1]) == want {
			t.Errorf("n=%d: appending a move leaves the digest unchanged", n)
		}
		for i := range moves {
			m := append([]M(nil), moves...)
			nudge(&m[i])
			if fold(seed, m) == want {
				t.Errorf("n=%d: a new geometry for move %d leaves the digest unchanged", n, i)
			}
			m = append(m[:0], moves...)
			*id(&m[i]) += 1
			if fold(seed, m) == want {
				t.Errorf("n=%d: a new ID for move %d leaves the digest unchanged", n, i)
			}
		}
		for i := range moves {
			for j := i + 1; j < n; j++ {
				m := append([]M(nil), moves...)
				*id(&m[j]) = *id(&m[i])
				merged := fold(seed, m)
				m[i], m[j] = m[j], m[i]
				if fold(seed, m) == merged {
					t.Errorf("n=%d: swapping moves %d and %d of one ID leaves the digest unchanged", n, i, j)
				}
			}
		}
	}
}
