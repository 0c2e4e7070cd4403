package par

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForCoversRange(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1023, 1024, 5000} {
		seen := make([]int32, n)
		ForChunks(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&seen[i], 1)
			}
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: index %d visited %d times, want 1", n, i, c)
			}
		}
	}
}

func TestForChunksDisjointCover(t *testing.T) {
	n := 10000
	seen := make([]int32, n)
	ForChunks(n, func(lo, hi int) {
		if lo < 0 || hi > n || lo > hi {
			t.Errorf("bad chunk [%d,%d)", lo, hi)
		}
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&seen[i], 1)
		}
	})
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
}

func TestForChunksEmpty(t *testing.T) {
	called := false
	ForChunks(0, func(lo, hi int) { called = true })
	if called {
		t.Fatal("fn called for empty range")
	}
	ForChunks(-5, func(lo, hi int) { called = true })
	if called {
		t.Fatal("fn called for negative range")
	}
}

func TestDoRunsAll(t *testing.T) {
	var a, b, c int32
	Do(
		func() { atomic.StoreInt32(&a, 1) },
		func() { atomic.StoreInt32(&b, 2) },
		func() { atomic.StoreInt32(&c, 3) },
	)
	if a != 1 || b != 2 || c != 3 {
		t.Fatalf("got a=%d b=%d c=%d", a, b, c)
	}
	Do() // no-op must not hang
}

func TestMapReduceSum(t *testing.T) {
	// Sum of [0,n) via MapReduce equals the closed form for assorted n.
	check := func(n int) bool {
		if n < 0 {
			n = -n
		}
		n %= 20000
		got := MapReduce(n, func(lo, hi int) int64 {
			var s int64
			for i := lo; i < hi; i++ {
				s += int64(i)
			}
			return s
		}, func(a, b int64) int64 { return a + b })
		want := int64(n) * int64(n-1) / 2
		if n == 0 {
			want = 0
		}
		return got == want
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMapReduceEmpty(t *testing.T) {
	got := MapReduce(0, func(lo, hi int) int { return 99 }, func(a, b int) int { return a + b })
	if got != 0 {
		t.Fatalf("empty MapReduce = %d, want zero value", got)
	}
}

func TestWorkersPositive(t *testing.T) {
	if Workers() < 1 {
		t.Fatalf("Workers() = %d", Workers())
	}
}
