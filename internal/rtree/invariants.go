package rtree

import "fmt"

// CheckInvariants implements core.InvariantChecker: the exported version
// of the STR packing audit the tests have always run, so the epoch
// publisher and the fault-injection harness can verify a tree before
// publishing it. It checks that the root is the last node, every node
// count is in (0, fanout], leaf entry runs start at fanout multiples and
// tile the entry arena exactly once, and every node MBR covers its
// children. Its mark of each object a leaf run holds is kept on the tree,
// since the epoch publisher audits before every publish.
func (t *BoxTree) CheckInvariants() error {
	n := len(t.entries)
	if n == 0 {
		if t.root != -1 {
			return fmt.Errorf("rtree: empty tree has root %d", t.root)
		}
		return nil
	}
	if len(t.entryRects) != n {
		return fmt.Errorf("rtree: %d entries but %d entryRects", n, len(t.entryRects))
	}
	if int(t.root) != len(t.nodes)-1 {
		return fmt.Errorf("rtree: root %d is not the last node (%d nodes)", t.root, len(t.nodes))
	}
	if cap(t.covered) < n {
		t.covered = make([]uint8, n)
	}
	covered := t.covered[:n]
	clear(covered)
	leafSeen := 0
	for ni := range t.nodes {
		nd := &t.nodes[ni]
		if nd.count <= 0 || int(nd.count) > t.fanout {
			return fmt.Errorf("rtree: node %d has count %d (fanout %d)", ni, nd.count, t.fanout)
		}
		if !nd.leaf {
			for c := nd.first; c < nd.first+nd.count; c++ {
				if int(c) >= len(t.nodes) {
					return fmt.Errorf("rtree: node %d child %d beyond node arena", ni, c)
				}
				if !nd.mbr.ContainsRect(t.nodes[c].mbr) {
					return fmt.Errorf("rtree: node %d MBR %v does not cover child %d MBR %v",
						ni, nd.mbr, c, t.nodes[c].mbr)
				}
			}
			continue
		}
		leafSeen++
		if ni >= t.leaves {
			return fmt.Errorf("rtree: leaf node %d beyond the leaf level (%d leaves)", ni, t.leaves)
		}
		if int(nd.first)%t.fanout != 0 {
			return fmt.Errorf("rtree: leaf %d starts mid-run at entry %d", ni, nd.first)
		}
		for k := nd.first; k < nd.first+nd.count; k++ {
			if int(k) >= n {
				return fmt.Errorf("rtree: leaf %d entry slot %d beyond arena", ni, k)
			}
			id := t.entries[k]
			if int(id) >= n {
				return fmt.Errorf("rtree: slot %d holds id %d beyond population %d", k, id, n)
			}
			if covered[id] != 0 {
				return fmt.Errorf("rtree: object %d appears in more than one leaf run", id)
			}
			covered[id] = 1
			if !nd.mbr.ContainsRect(t.entryRects[k]) {
				return fmt.Errorf("rtree: leaf %d MBR %v does not cover entry %d rect %v",
					ni, nd.mbr, id, t.entryRects[k])
			}
		}
	}
	if leafSeen != t.leaves {
		return fmt.Errorf("rtree: %d leaf nodes, want %d", leafSeen, t.leaves)
	}
	for id, c := range covered {
		if c != 1 {
			return fmt.Errorf("rtree: object %d missing from the leaf level", id)
		}
	}
	return nil
}
