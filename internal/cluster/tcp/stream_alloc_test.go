//go:build !race

// The recycling assertion cannot run under the race detector: it
// intentionally randomises sync.Pool reuse, so pooled buffers look
// like fresh allocations and the pool-miss bound turns meaningless.

package tcp_test

import (
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"demsort/internal/bufpool"
	"demsort/internal/cluster"
	"demsort/internal/cluster/tcp"
)

// TestA2AStreamRecyclesSendBuffers: the pipelined all-to-all's steady
// state must circulate pooled buffers, not allocate per round — the
// sender goroutine recycles each posted payload after the socket
// write, the receiver recycles via RecycleRecv. On a 2-rank fleet, 64
// rounds of 1 MiB payloads after a warm-up must miss the bufpool at
// most window times: an unrecycled path misses on every round (≥ 128).
// The bound counts misses, not heap bytes: a round can reach an
// in-flight peak the warm-up never hit (a payload still in this rank's
// sender while the next one is drawn), and that single extra pool
// buffer is a full payload of heap growth without being a leak.
func TestA2AStreamRecyclesSendBuffers(t *testing.T) {
	const (
		p        = 2
		payload  = 1 << 20
		window   = 2
		warmup   = 8
		measured = 64
	)
	// GC stays off: a collection empties sync.Pool and would show up as
	// misses.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	peers := reservePorts(t, p)
	errs := make([]error, p)
	var missed int64
	var wg sync.WaitGroup
	for rank := 0; rank < p; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			m, err := tcp.New(tcp.Config{
				Rank: rank, Peers: peers, BlockBytes: confBlock, MemElems: confMem,
				ConnectTimeout: 20 * time.Second,
			})
			if err != nil {
				errs[rank] = err
				return
			}
			defer m.Close()
			errs[rank] = m.Run(func(n *cluster.Node) error {
				// rounds posts and collects count 1 MiB exchanges on a fresh
				// stream, closed before returning: no other collective may
				// run while a stream is open.
				rounds := func(count int) {
					st := n.OpenA2AStream(window)
					defer st.Close()
					for i := 0; i < count; i++ {
						send := make([][]byte, p)
						b := bufpool.Get(payload)
						b[0] = byte(n.Rank)
						send[1-n.Rank] = b
						st.Post(send)
						cluster.RecycleRecv(st.Collect())
					}
				}
				rounds(warmup)
				n.Barrier()
				var before int64
				if n.Rank == 0 {
					before = bufpool.Misses()
				}
				rounds(measured)
				n.Barrier()
				if n.Rank == 0 {
					missed = bufpool.Misses() - before
				}
				return nil
			})
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	if missed > window {
		t.Fatalf("steady-state stream rounds missed the bufpool %d times (limit %d) — posted payloads are not being recycled", missed, window)
	}
}
