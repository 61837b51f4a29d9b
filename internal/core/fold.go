package core

// mixIDs folds the pairs (q, id), for every id in ids, into the digest h,
// MixPair once per ID: the definition of foldIDs and its portable tier.
func mixIDs(h uint64, q uint32, ids []uint32) uint64 {
	for _, id := range ids {
		h = MixPair(h, q, id)
	}
	return h
}
