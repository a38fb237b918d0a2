package bufpool

import (
	"sync"
	"testing"
)

func TestGetLengthAndClassCapacity(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 1000, 1024, 1 << 20} {
		b := Get(n)
		if len(b) != max(n, 0) {
			t.Fatalf("Get(%d) returned len %d", n, len(b))
		}
		if n > 0 && cap(b) < n {
			t.Fatalf("Get(%d) returned cap %d", n, cap(b))
		}
		Put(b)
	}
}

func TestRoundTripReusesBuffer(t *testing.T) {
	// A put buffer of an exact class size must be reusable at any
	// length the class covers. (sync.Pool may drop entries under GC
	// pressure, so reuse is asserted only as "no corruption", not
	// identity.)
	b := Get(1024)
	for i := range b {
		b[i] = 0xEE
	}
	Put(b)
	c := Get(700)
	if len(c) != 700 {
		t.Fatalf("got len %d", len(c))
	}
	for i := range c {
		c[i] = 0x11 // must be writable without touching b's old view
	}
	Put(c)
}

func TestAppendGrownBufferFloorClass(t *testing.T) {
	// Append-grown buffers with non-power-of-two capacity must still be
	// safely pooled: a later Get never receives less capacity than its
	// class promises.
	b := make([]byte, 0, 100) // floor class 64
	Put(b)
	g := Get(64)
	if cap(g) < 64 {
		t.Fatalf("class capacity violated: cap %d", cap(g))
	}
	Put(g)
}

func TestPutGetAllocFree(t *testing.T) {
	b := Get(4096)
	if n := testing.AllocsPerRun(100, func() {
		Put(b)
		b = Get(4096)
	}); n > 0 {
		t.Errorf("Put+Get allocates %.1f/op, want 0", n)
	}
}

func TestConcurrentUse(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed byte) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				b := Get(512 + i%512)
				for j := range b {
					b[j] = seed
				}
				for j := range b {
					if b[j] != seed {
						t.Errorf("buffer shared while owned")
						return
					}
				}
				Put(b)
			}
		}(byte(g))
	}
	wg.Wait()
}

func TestMissesCountsFreshAllocations(t *testing.T) {
	// Drain whatever the 4 KiB class holds: the first Get that comes up
	// empty must count exactly one miss.
	before := Misses()
	var held [][]byte
	for i := 0; i < 1000 && Misses() == before; i++ {
		held = append(held, Get(3000))
	}
	if got := Misses() - before; got != 1 {
		t.Fatalf("draining the class counted %d misses, want 1", got)
	}
	for _, b := range held {
		Put(b)
	}
}
