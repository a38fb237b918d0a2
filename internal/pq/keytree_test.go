package pq

import (
	"cmp"
	"math/rand/v2"
	"slices"
	"testing"
)

// mergeWithKeyTree drains k sorted uint64 streams through a KeyTree,
// returning (value, stream) pairs in emission order.
func mergeWithKeyTree(seqs [][]uint64, tie func(a, b int) bool) (vals []uint64, srcs []int) {
	k := len(seqs)
	keys := make([]uint64, k)
	live := make([]bool, k)
	pos := make([]int, k)
	for i, s := range seqs {
		if len(s) > 0 {
			keys[i] = s[0]
			live[i] = true
		}
	}
	t := NewKeyTree(k, keys, live, tie)
	for !t.Empty() {
		i := t.Win()
		vals = append(vals, seqs[i][pos[i]])
		srcs = append(srcs, i)
		pos[i]++
		if pos[i] < len(seqs[i]) {
			t.Replace(seqs[i][pos[i]])
		} else {
			t.Retire()
		}
	}
	return vals, srcs
}

// stableMerge is the reference merge: the concatenation of the
// streams, stably sorted by value — (value, stream-index) order, the
// tree's tie rule for exact keys.
func stableMerge(seqs [][]uint64) (vals []uint64, srcs []int) {
	type ent struct {
		v   uint64
		src int
	}
	var all []ent
	for i, s := range seqs {
		for _, v := range s {
			all = append(all, ent{v, i})
		}
	}
	slices.SortStableFunc(all, func(a, b ent) int { return cmp.Compare(a.v, b.v) })
	for _, e := range all {
		vals = append(vals, e.v)
		srcs = append(srcs, e.src)
	}
	return vals, srcs
}

// TestKeyTreeStableDuplicateHeavy cross-checks the key tree against a
// stable sort of the concatenated streams on duplicate-heavy input:
// same (value, stream-index) emission order.
func TestKeyTreeStableDuplicateHeavy(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 9))
	for _, k := range []int{1, 2, 3, 4, 7, 16, 33} {
		seqs := make([][]uint64, k)
		for i := range seqs {
			n := int(rng.Uint64N(200))
			seqs[i] = make([]uint64, n)
			for j := range seqs[i] {
				seqs[i][j] = rng.Uint64N(5) // ~n/5 copies of each value
			}
			slices.Sort(seqs[i])
		}
		gotV, gotS := mergeWithKeyTree(seqs, nil)
		wantV, wantS := stableMerge(seqs)
		if !slices.Equal(gotV, wantV) || !slices.Equal(gotS, wantS) {
			t.Fatalf("k=%d: key tree and stable sort disagree", k)
		}
	}
}

// TestKeyTreeStableSentinelKeys cross-checks against a stable sort on
// random streams that carry the dead-key sentinel value ^0 as a live
// key.
func TestKeyTreeStableSentinelKeys(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 5))
	for _, k := range []int{2, 5, 9, 17} {
		seqs := make([][]uint64, k)
		for i := range seqs {
			n := int(rng.Uint64N(60))
			seqs[i] = make([]uint64, n)
			for j := range seqs[i] {
				switch rng.Uint64N(8) {
				case 0:
					seqs[i][j] = ^uint64(0) // collides with the sentinel
				case 1:
					seqs[i][j] = 0
				default:
					seqs[i][j] = rng.Uint64()
				}
			}
			slices.Sort(seqs[i])
		}
		gotV, gotS := mergeWithKeyTree(seqs, nil)
		wantV, wantS := stableMerge(seqs)
		if !slices.Equal(gotV, wantV) || !slices.Equal(gotS, wantS) {
			t.Fatalf("k=%d: key tree and stable sort disagree", k)
		}
	}
}

// TestKeyTreeTieCallback drives the comparator fallback: all keys
// equal, a tie callback that inverts the index order.
func TestKeyTreeTieCallback(t *testing.T) {
	rank := []int{2, 0, 1} // stream 1 first, then 2, then 0
	tie := func(a, b int) bool { return rank[a] < rank[b] }
	tr := NewKeyTree(3, []uint64{5, 5, 5}, []bool{true, true, true}, tie)
	var order []int
	for !tr.Empty() {
		order = append(order, tr.Win())
		tr.Retire()
	}
	if !slices.Equal(order, []int{1, 2, 0}) {
		t.Fatalf("tie callback ignored: emission order %v", order)
	}
}

func TestKeyTreeRevive(t *testing.T) {
	tr := NewKeyTree(2, []uint64{5, 10}, []bool{true, true}, nil)
	if tr.Win() != 0 || tr.WinKey() != 5 {
		t.Fatalf("got (%d,%d)", tr.Win(), tr.WinKey())
	}
	tr.Retire() // stream 0 pauses at a batch boundary
	if tr.Win() != 1 || tr.WinKey() != 10 {
		t.Fatalf("got (%d,%d)", tr.Win(), tr.WinKey())
	}
	tr.Revive(0, 6)
	if tr.Win() != 0 || tr.WinKey() != 6 {
		t.Fatalf("after revive got (%d,%d)", tr.Win(), tr.WinKey())
	}
}

func TestKeyTreeResetReuses(t *testing.T) {
	tr := NewKeyTree(8, make([]uint64, 8), []bool{true, true, true, true, true, true, true, true}, nil)
	for !tr.Empty() {
		tr.Retire()
	}
	// Reset to a smaller live configuration; state must not leak.
	tr.Reset(3, []uint64{3, 1, 2}, []bool{true, true, true}, nil)
	var got []uint64
	for !tr.Empty() {
		got = append(got, tr.WinKey())
		tr.Retire()
	}
	if !slices.Equal(got, []uint64{1, 2, 3}) {
		t.Fatalf("after reset: %v", got)
	}
}

func TestKeyTreeAllEmpty(t *testing.T) {
	tr := NewKeyTree(4, make([]uint64, 4), make([]bool, 4), nil)
	if !tr.Empty() {
		t.Error("expected empty tree when no stream is live")
	}
}
