package main

// Trace wrappers: each wraps one layer's public boundary from outside
// the program and times the calls that cross it. They forward every
// optional interface the wrapped value has (StreamingTransport,
// MailboxStats, Sync, BulkCodec, KeyedCodec, BulkKeyer), so a traced
// job takes the same code paths as an untraced one and writes the same
// bytes; the self-test pins that.

import (
	"io"
	"sync/atomic"
	"time"

	"demsort/internal/blockio"
	"demsort/internal/cluster"
	"demsort/internal/elem"
	"demsort/internal/vtime"
)

// tracer holds one rank's per-layer counters. Layer calls may come from
// the PE goroutine and from the sorter's I/O goroutines, so every
// counter is atomic. phaseChild maps each sort phase to the layer time
// traced while it was current (the part of the phase's wall that is not
// the sorter's own work); only SetPhase on the PE goroutine writes it,
// and it is read after the sort.
type tracer struct {
	phaseChild map[string]*atomic.Int64
	cur        atomic.Pointer[atomic.Int64]

	storeReadNs, storeWriteNs, storeReadBytes, storeWriteBytes, storeOps atomic.Int64

	a2aNs, a2aBytes                                      atomic.Int64
	streamPostNs, streamCollectNs, streamBytes           atomic.Int64
	syncNs, netCalls                                     atomic.Int64
	decodeNs, encodeNs, keysNs, decodeBytes, encodeBytes atomic.Int64
	sourceNs, sinkNs                                     atomic.Int64
}

func newTracer() *tracer {
	t := &tracer{phaseChild: map[string]*atomic.Int64{}}
	t.setPhase(phaseInit)
	return t
}

func (t *tracer) setPhase(name string) {
	acc := t.phaseChild[name]
	if acc == nil {
		acc = new(atomic.Int64)
		t.phaseChild[name] = acc
	}
	t.cur.Store(acc)
}

// childSeconds is the layer time traced inside phase name.
func (t *tracer) childSeconds(name string) float64 {
	if acc := t.phaseChild[name]; acc != nil {
		return float64(acc.Load()) / 1e9
	}
	return 0
}

// span charges the time since start to a layer counter and to the
// current phase's traced child time.
func (t *tracer) span(counter *atomic.Int64, start time.Time) {
	ns := int64(time.Since(start))
	counter.Add(ns)
	t.cur.Load().Add(ns)
}

// ---------------------------------------------------------------------
// cluster: a Machine wrapper in the style of faulty.Wrap.
// ---------------------------------------------------------------------

// tracedMachine re-assembles each hosted PE's Node around a timed
// Transport and a Stats that reports phase switches to the tracer.
// Nodes() stays the inner machine's, so Result.PerPE is the backend's
// own accounting.
type tracedMachine struct {
	cluster.Machine
	t *tracer
}

func (m *tracedMachine) Run(fn func(*cluster.Node) error) error {
	return m.Machine.Run(func(n *cluster.Node) error {
		tr := &tracedTransport{Transport: n.Transport(), t: m.t, net: n.P > 1}
		st := &tracedStats{inner: n.NodeStats(), t: m.t}
		return fn(cluster.NewNode(tr, st, n.Vol, n.Mem))
	})
}

// tracedStats tells the tracer which phase is current, so layer time
// is charged to the phase it ran in.
type tracedStats struct {
	inner cluster.Stats
	t     *tracer
}

func (s *tracedStats) SetPhase(name string) {
	s.inner.SetPhase(name)
	s.t.setPhase(name)
}

func (s *tracedStats) Phase() string      { return s.inner.Phase() }
func (s *tracedStats) AddCPU(sec float64) { s.inner.AddCPU(sec) }
func (s *tracedStats) Stats() ([]string, map[string]*vtime.PhaseStats) {
	return s.inner.Stats()
}

// tracedTransport times every Transport call. A one-rank machine
// answers every collective locally without touching a socket, so only
// machines of more than one rank (net) are charged.
type tracedTransport struct {
	cluster.Transport
	t   *tracer
	net bool
}

func (tr *tracedTransport) done(counter *atomic.Int64, start time.Time) {
	if tr.net {
		tr.t.netCalls.Add(1)
		tr.t.span(counter, start)
	}
}

// sentBytes counts the bytes of an exchange that leave this rank.
func (tr *tracedTransport) sentBytes(send [][]byte) int64 {
	var n int64
	for j, b := range send {
		if j != tr.Rank() {
			n += int64(len(b))
		}
	}
	return n
}

func (tr *tracedTransport) AllToAllv(send [][]byte) [][]byte {
	if tr.net {
		tr.t.a2aBytes.Add(tr.sentBytes(send))
	}
	defer tr.done(&tr.t.a2aNs, time.Now())
	return tr.Transport.AllToAllv(send)
}

func (tr *tracedTransport) Barrier() {
	defer tr.done(&tr.t.syncNs, time.Now())
	tr.Transport.Barrier()
}

func (tr *tracedTransport) AllGather(data []byte) [][]byte {
	defer tr.done(&tr.t.syncNs, time.Now())
	return tr.Transport.AllGather(data)
}

func (tr *tracedTransport) Bcast(root int, data []byte) []byte {
	defer tr.done(&tr.t.syncNs, time.Now())
	return tr.Transport.Bcast(root, data)
}

func (tr *tracedTransport) AllReduceInt64(v int64, op string) int64 {
	defer tr.done(&tr.t.syncNs, time.Now())
	return tr.Transport.AllReduceInt64(v, op)
}

func (tr *tracedTransport) ExchangeAny(items []any, nominalBytes int) []any {
	defer tr.done(&tr.t.syncNs, time.Now())
	return tr.Transport.ExchangeAny(items, nominalBytes)
}

func (tr *tracedTransport) Send(dst, tag int, payload []byte) {
	defer tr.done(&tr.t.syncNs, time.Now())
	tr.Transport.Send(dst, tag, payload)
}

func (tr *tracedTransport) Recv(src, tag int) []byte {
	defer tr.done(&tr.t.syncNs, time.Now())
	return tr.Transport.Recv(src, tag)
}

// MailboxPeakBytes forwards cluster.MailboxStats.
func (tr *tracedTransport) MailboxPeakBytes() int64 {
	if ms, ok := tr.Transport.(cluster.MailboxStats); ok {
		return ms.MailboxPeakBytes()
	}
	return 0
}

// OpenA2AStream forwards cluster.StreamingTransport, so the pipelined
// exchange stays pipelined under tracing.
func (tr *tracedTransport) OpenA2AStream(window int) cluster.A2AStream {
	if st, ok := tr.Transport.(cluster.StreamingTransport); ok {
		return &tracedStream{A2AStream: st.OpenA2AStream(window), tr: tr}
	}
	return cluster.SyncA2AStream(tr)
}

type tracedStream struct {
	cluster.A2AStream
	tr *tracedTransport
}

func (s *tracedStream) Post(send [][]byte) {
	if s.tr.net {
		s.tr.t.streamBytes.Add(s.tr.sentBytes(send))
	}
	defer s.tr.done(&s.tr.t.streamPostNs, time.Now())
	s.A2AStream.Post(send)
}

func (s *tracedStream) Collect() [][]byte {
	defer s.tr.done(&s.tr.t.streamCollectNs, time.Now())
	return s.A2AStream.Collect()
}

// ---------------------------------------------------------------------
// blockio: a Store wrapper installed through NewStore.
// ---------------------------------------------------------------------

type tracedStore struct {
	blockio.Store
	t *tracer
}

func traceStores(t *tracer, newStore func(rank int) (blockio.Store, error)) func(rank int) (blockio.Store, error) {
	return func(rank int) (blockio.Store, error) {
		var s blockio.Store = blockio.NewMemStore()
		if newStore != nil {
			var err error
			if s, err = newStore(rank); err != nil {
				return nil, err
			}
		}
		return &tracedStore{Store: s, t: t}, nil
	}
}

func (s *tracedStore) ReadAt(id blockio.BlockID, dst []byte) error {
	s.t.storeOps.Add(1)
	s.t.storeReadBytes.Add(int64(len(dst)))
	defer s.t.span(&s.t.storeReadNs, time.Now())
	return s.Store.ReadAt(id, dst)
}

func (s *tracedStore) WriteAt(id blockio.BlockID, src []byte) error {
	s.t.storeOps.Add(1)
	s.t.storeWriteBytes.Add(int64(len(src)))
	defer s.t.span(&s.t.storeWriteNs, time.Now())
	return s.Store.WriteAt(id, src)
}

// Sync forwards the store's durability fence when it has one.
func (s *tracedStore) Sync() error {
	if sy, ok := s.Store.(interface{ Sync() error }); ok {
		return sy.Sync()
	}
	return nil
}

// ---------------------------------------------------------------------
// elem: a Rec100 codec that times the bulk calls only.
// ---------------------------------------------------------------------

// tracedCodec times EncodeSliceInto, DecodeSliceInto and KeysInto; the
// per-element methods delegate untimed, since a clock read per record
// would cost more than the call it measures.
type tracedCodec struct {
	elem.Rec100Codec
	t *tracer
}

func (c tracedCodec) EncodeSliceInto(dst []byte, vs []elem.Rec100) {
	c.t.encodeBytes.Add(int64(len(vs)) * 100)
	defer c.t.span(&c.t.encodeNs, time.Now())
	c.Rec100Codec.EncodeSliceInto(dst, vs)
}

func (c tracedCodec) DecodeSliceInto(dst []elem.Rec100, src []byte) {
	c.t.decodeBytes.Add(int64(len(dst)) * 100)
	defer c.t.span(&c.t.decodeNs, time.Now())
	c.Rec100Codec.DecodeSliceInto(dst, src)
}

func (c tracedCodec) KeysInto(dst []uint64, vs []elem.Rec100) {
	defer c.t.span(&c.t.keysNs, time.Now())
	c.Rec100Codec.KeysInto(dst, vs)
}

// ---------------------------------------------------------------------
// Source / Sink hooks.
// ---------------------------------------------------------------------

type tracedReader struct {
	r io.Reader
	t *tracer
}

func (r *tracedReader) Read(p []byte) (int, error) {
	defer r.t.span(&r.t.sourceNs, time.Now())
	return r.r.Read(p)
}

func traceSource(t *tracer, src func(rank int) (io.Reader, int64, error)) func(rank int) (io.Reader, int64, error) {
	return func(rank int) (io.Reader, int64, error) {
		r, n, err := src(rank)
		if err != nil {
			return nil, 0, err
		}
		return &tracedReader{r: r, t: t}, n, nil
	}
}

func traceSink(t *tracer, sink func(rank int, b []byte) error) func(rank int, b []byte) error {
	return func(rank int, b []byte) error {
		defer t.span(&t.sinkNs, time.Now())
		return sink(rank, b)
	}
}

// Interface conformance: the wrappers expose every optional extension
// the program probes for.
var (
	_ cluster.Machine              = (*tracedMachine)(nil)
	_ cluster.MailboxStats         = (*tracedTransport)(nil)
	_ cluster.StreamingTransport   = (*tracedTransport)(nil)
	_ elem.BulkCodec[elem.Rec100]  = tracedCodec{}
	_ elem.KeyedCodec[elem.Rec100] = tracedCodec{}
	_ elem.BulkKeyer[elem.Rec100]  = tracedCodec{}
	_ interface{ Sync() error }    = (*tracedStore)(nil)
)
