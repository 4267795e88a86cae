package core

import (
	"cmp"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// queueScore draws a small score or one next to a power-of-two boundary,
// up to 2^61, so that long runs and every bucket occur.
func queueScore(rng *rand.Rand) int64 {
	if rng.Intn(2) == 0 {
		return rng.Int63n(12)
	}
	return int64(1)<<rng.Intn(62) + rng.Int63n(3) - 1
}

// queueSim drives a cliqueQueue and a sort-based reference through one
// random monotone sequence shaped like Calculation's: every root is
// seeded once in root order, and a root is re-pushed only right after
// its own pop, at a score no lower, with a fresh member list that under
// StrictTies follows the popped one on an equal score. No member list is
// used twice.
type queueSim struct {
	t      *testing.T
	rng    *rand.Rand
	strict bool
	q      *cliqueQueue
	seen   map[[3]int32]bool
	ref    []refEntry
	seq    int64
}

type refEntry struct {
	root  int32
	score int64
	seq   int64
}

// freshClique draws a member list not used before that follows after,
// when after is not nil. It reports false when a few hundred draws find
// none.
func (s *queueSim) freshClique(after []int32) ([]int32, bool) {
	for range 500 {
		c := []int32{s.rng.Int31n(30), s.rng.Int31n(30), s.rng.Int31n(30)}
		slices.Sort(c)
		key := [3]int32{c[0], c[1], c[2]}
		if c[0] == c[1] || c[1] == c[2] || s.seen[key] || (after != nil && slices.Compare(c, after) <= 0) {
			continue
		}
		s.seen[key] = true
		return c, true
	}
	return nil, false
}

// setMin writes root's local minimum into its slot, as HeapInit and
// Calculation do before a push.
func (q *cliqueQueue) setMin(root int32, c []int32, score int64) {
	copy(q.clique(root), c)
	q.score[root] = score
}

func (s *queueSim) push(root int32, c []int32, score int64) {
	s.q.setMin(root, c, score)
	s.q.push(root)
	s.ref = append(s.ref, refEntry{root: root, score: score, seq: s.seq})
	s.seq++
}

// refPop sorts the reference by (score, tie-break) and removes and
// returns its first entry.
func (s *queueSim) refPop() refEntry {
	slices.SortFunc(s.ref, func(a, b refEntry) int {
		if c := cmp.Compare(a.score, b.score); c != 0 {
			return c
		}
		if s.strict {
			return slices.Compare(s.q.clique(a.root), s.q.clique(b.root))
		}
		return cmp.Compare(a.seq, b.seq)
	})
	e := s.ref[0]
	s.ref = s.ref[1:]
	return e
}

func (s *queueSim) run(roots int) {
	for r := int32(0); int(r) < roots; r++ {
		c, _ := s.freshClique(nil)
		s.push(r, c, queueScore(s.rng))
	}
	for pushes := 0; len(s.ref) > 0; {
		want := s.refPop()
		got, ok := s.q.pop()
		if !ok || got != want.root {
			s.t.Fatalf("strict=%v: popped root %d (ok=%v), reference pops root %d at score %d",
				s.strict, got, ok, want.root, want.score)
		}
		if pushes >= 4*roots || s.rng.Intn(3) == 0 {
			continue
		}
		pushes++
		popped, popScore := s.q.clique(want.root), s.q.score[want.root]
		score := popScore
		var after []int32
		switch s.rng.Intn(5) {
		case 0, 1: // an equal score
			if s.strict {
				after = popped
			}
		case 2: // the next power-of-two boundary, or just below it
			if score > 0 && score < 1<<61 {
				score = int64(1)<<bits.Len64(uint64(score)) - int64(s.rng.Intn(2))
				score = max(score, popScore)
			}
		case 3:
			score += s.rng.Int63n(8)
		default:
			score += s.rng.Int63n(1 << 30)
		}
		c, ok := s.freshClique(after)
		if !ok {
			score++
			c, _ = s.freshClique(nil)
		}
		s.push(want.root, c, score)
	}
	if root, ok := s.q.pop(); ok {
		s.t.Fatalf("strict=%v: queue still holds root %d after the reference emptied", s.strict, root)
	}
}

// TestCliqueQueueMatchesSortReference pins the radix queue's pop order to
// a sort of the queued entries under both tie-breaks, over random
// monotone sequences with pushes at the last popped score and at
// power-of-two boundaries.
func TestCliqueQueueMatchesSortReference(t *testing.T) {
	for _, strict := range []bool{false, true} {
		for trial := int64(0); trial < 60; trial++ {
			roots := 20 + int(trial)%40
			s := &queueSim{
				t:      t,
				rng:    rand.New(rand.NewSource(trial)),
				strict: strict,
				q:      newCliqueQueue(roots, 3, strict),
				seen:   map[[3]int32]bool{},
			}
			s.run(roots)
		}
	}
}

// TestCliqueQueuePushBelowLastPanics: a push below the last popped score
// breaks the monotone order the queue relies on, so it panics, and so
// does a negative score, below the queue's starting score of 0.
func TestCliqueQueuePushBelowLastPanics(t *testing.T) {
	mustPanic := func(what string, push func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		push()
	}
	q := newCliqueQueue(2, 3, false)
	q.setMin(0, []int32{0, 1, 2}, 5)
	q.setMin(1, []int32{0, 1, 3}, 9)
	q.push(0)
	q.push(1)
	if root, _ := q.pop(); root != 0 {
		t.Fatalf("popped root %d, want 0", root)
	}
	q.score[0] = 4
	mustPanic("a push of score 4 after a pop at 5", func() { q.push(0) })

	fresh := newCliqueQueue(1, 3, false)
	fresh.setMin(0, []int32{0, 1, 2}, -1)
	mustPanic("a push of score -1", func() { fresh.push(0) })
}

// TestCliqueQueueZeroAlloc pins that push and pop allocate nothing once
// the buckets have grown, under both tie-breaks.
func TestCliqueQueueZeroAlloc(t *testing.T) {
	for _, strict := range []bool{false, true} {
		rng := rand.New(rand.NewSource(1))
		const roots = 64
		q := newCliqueQueue(roots, 3, strict)
		for r := int32(0); r < roots; r++ {
			q.setMin(r, []int32{r, 100, 200}, rng.Int63n(300))
		}
		allocs := testing.AllocsPerRun(50, func() {
			q.last = 0 // restart the monotone sequence
			for r := int32(0); r < roots; r++ {
				q.push(r)
			}
			for {
				r, ok := q.pop()
				if !ok {
					break
				}
				if c := q.clique(r); r%3 == 0 && c[2] == 200 {
					c[2] = 300 // a later member list at the same score
					q.push(r)
				} else {
					c[2] = 200
				}
			}
		})
		if allocs != 0 {
			t.Fatalf("strict=%v: push/pop allocated %.1f times per run, want 0", strict, allocs)
		}
	}
}
