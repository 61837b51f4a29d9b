package epoch

import (
	"math"

	"repro/internal/geom"
)

// The epoch digest is a chained fold over the stream of published
// state: epoch 0 hashes the build snapshot in id order, and each
// published batch folds its moves, order-sensitively, on top of the
// previous epoch's digest. The fold functions are exported so tests can
// compute oracle digests independently and assert that every query
// observed exactly one published epoch.

// mix64 is the splitmix64 finalizer — the avalanche step the folds
// chain through.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func hashPoint(p geom.Point) uint64 {
	return mix64(uint64(math.Float32bits(p.X))<<32 | uint64(math.Float32bits(p.Y)))
}

func hashRect(r geom.Rect) uint64 {
	lo := uint64(math.Float32bits(r.MinX))<<32 | uint64(math.Float32bits(r.MinY))
	hi := uint64(math.Float32bits(r.MaxX))<<32 | uint64(math.Float32bits(r.MaxY))
	return mix64(mix64(lo) ^ hi)
}

// SnapshotDigestPoints is the epoch-0 digest of a point snapshot.
//
//joinlint:deterministic
func SnapshotDigestPoints(pts []geom.Point) uint64 {
	d := uint64(len(pts))
	for i := range pts {
		d = mix64(d ^ (uint64(i) + 1) ^ hashPoint(pts[i]))
	}
	return d
}

// SnapshotDigestBoxes is the epoch-0 digest of a box snapshot.
//
//joinlint:deterministic
func SnapshotDigestBoxes(rects []geom.Rect) uint64 {
	d := uint64(len(rects))
	for i := range rects {
		d = mix64(d ^ (uint64(i) + 1) ^ hashRect(rects[i]))
	}
	return d
}

// The batch folds run four chains: move i goes into chain i mod 4 for
// the batch's whole multiple of four, and the tail shorter than four into
// the first chain. Every chain starts from the digest mixed with the
// batch length, and the four are chained into the result through mix64
// in lane order, so the fold stays sensitive to the order of the moves
// (within a chain by the chaining, across chains by the lane they fall
// into) while the four mix64 chains overlap instead of running end to
// end.

// combineLanes chains the four lanes into one digest, in lane order.
func combineLanes(a, b, c, e uint64) uint64 {
	return mix64(mix64(mix64(mix64(a)^b)^c) ^ e)
}

// FoldMoves chains one published point batch onto a digest.
//
//joinlint:deterministic
func FoldMoves(d uint64, moves []geom.Move) uint64 {
	d = mix64(d ^ uint64(len(moves)))
	a, b, c, e := d, d, d, d
	i := 0
	for ; i+4 <= len(moves); i += 4 {
		m := moves[i : i+4 : i+4]
		a = mix64(a ^ (uint64(m[0].ID) + 1) ^ hashPoint(m[0].New))
		b = mix64(b ^ (uint64(m[1].ID) + 1) ^ hashPoint(m[1].New))
		c = mix64(c ^ (uint64(m[2].ID) + 1) ^ hashPoint(m[2].New))
		e = mix64(e ^ (uint64(m[3].ID) + 1) ^ hashPoint(m[3].New))
	}
	for ; i < len(moves); i++ {
		a = mix64(a ^ (uint64(moves[i].ID) + 1) ^ hashPoint(moves[i].New))
	}
	return combineLanes(a, b, c, e)
}

// FoldBoxMoves chains one published box batch onto a digest.
//
//joinlint:deterministic
func FoldBoxMoves(d uint64, moves []geom.BoxMove) uint64 {
	d = mix64(d ^ uint64(len(moves)))
	a, b, c, e := d, d, d, d
	i := 0
	for ; i+4 <= len(moves); i += 4 {
		m := moves[i : i+4 : i+4]
		a = mix64(a ^ (uint64(m[0].ID) + 1) ^ hashRect(m[0].New))
		b = mix64(b ^ (uint64(m[1].ID) + 1) ^ hashRect(m[1].New))
		c = mix64(c ^ (uint64(m[2].ID) + 1) ^ hashRect(m[2].New))
		e = mix64(e ^ (uint64(m[3].ID) + 1) ^ hashRect(m[3].New))
	}
	for ; i < len(moves); i++ {
		a = mix64(a ^ (uint64(moves[i].ID) + 1) ^ hashRect(moves[i].New))
	}
	return combineLanes(a, b, c, e)
}
