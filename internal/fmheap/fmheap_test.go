package fmheap

import (
	"container/heap"
	"math/rand"
	"testing"
)

// swapHeap is the textbook swap-based max-heap on gains (container/heap's
// algorithm), the behaviour the packed heap must reproduce exactly.
type swapHeap []Entry

func (h swapHeap) Len() int           { return len(h) }
func (h swapHeap) Less(i, j int) bool { return h[i].Gain > h[j].Gain }
func (h swapHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *swapHeap) Push(x any)        { *h = append(*h, x.(Entry)) }
func (h *swapHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// TestMatchesSwapHeap drives both heaps through the same random
// build/push/pop sequences, with many tied gains, and requires the same
// popped entry at every step and the same array layout after every
// operation.
func TestMatchesSwapHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	same := func(step int, got []Entry, want swapHeap) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("step %d: len %d != %d", step, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("step %d: layout differs at slot %d: %v != %v", step, i, got[i], want[i])
			}
		}
	}
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(40)
		packed := make([]Entry, n)
		for i := range packed {
			packed[i] = Entry{V: int32(i), Gain: int32(rng.Intn(7) - 3)}
		}
		ref := swapHeap(append([]Entry(nil), packed...))
		Init(packed)
		heap.Init(&ref)
		same(-1, packed, ref)
		for step := 0; step < 200; step++ {
			if len(packed) > 0 && rng.Intn(3) == 0 {
				var got Entry
				got, packed = Pop(packed)
				if want := heap.Pop(&ref).(Entry); got != want {
					t.Fatalf("trial %d step %d: popped %v, want %v", trial, step, got, want)
				}
			} else {
				e := Entry{V: int32(rng.Intn(100)), Gain: int32(rng.Intn(7) - 3)}
				packed = Push(packed, e)
				heap.Push(&ref, e)
			}
			same(step, packed, ref)
		}
	}
}
