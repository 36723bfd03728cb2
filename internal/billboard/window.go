package billboard

import "sort"

// WindowCounts is a reusable dense per-object counter for window queries:
// a counts array indexed by object plus the list of touched objects, so
// resetting costs O(objects touched), not O(objects). One buffer serves
// every window query of a run (Reader.CountVotesInWindow fills it).
type WindowCounts struct {
	counts   []int
	touched  []int
	unsorted bool
}

// Reset prepares the buffer for a universe of the given object count,
// clearing any previous counts. Only previously touched entries are
// zeroed; the backing array is reallocated only when objects grows.
func (wc *WindowCounts) Reset(objects int) {
	if len(wc.counts) < objects {
		wc.counts = make([]int, objects)
		wc.touched = wc.touched[:0]
		wc.unsorted = false
		return
	}
	for _, obj := range wc.touched {
		wc.counts[obj] = 0
	}
	wc.touched = wc.touched[:0]
	wc.unsorted = false
}

// Add adds delta to an object's count. Objects outside the Reset range are
// the caller's bug and will panic like any slice bounds error.
func (wc *WindowCounts) Add(object, delta int) {
	if wc.counts[object] == 0 && delta != 0 {
		wc.touched = append(wc.touched, object)
		wc.unsorted = true
	}
	wc.counts[object] += delta
}

// Count returns an object's count (zero if untouched).
func (wc *WindowCounts) Count(object int) int { return wc.counts[object] }

// Objects returns the objects with nonzero counts in increasing object
// order (sorted lazily, so repeated reads after one fill are O(1)). The
// slice aliases the buffer: valid until the next Reset, do not mutate.
func (wc *WindowCounts) Objects() []int {
	if wc.unsorted {
		sort.Ints(wc.touched)
		wc.unsorted = false
	}
	return wc.touched
}

// Len returns the number of objects with nonzero counts.
func (wc *WindowCounts) Len() int { return len(wc.touched) }
