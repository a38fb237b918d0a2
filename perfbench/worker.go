package main

// The worker entry: one rank of a benchmark fleet, run as its own OS
// process. It builds the job exactly as `demsort -transport=tcp`'s
// worker does — tcp.New, demsort.Sort or SortStriped with Rec100Codec,
// Source = the rank's section of the input file, Sink = a part file
// (bufio, fsync, rename, directory fsync), NewStore = the file store or
// the RAM store — and reports its measurements as one JSON line on
// standard output.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	demsort "demsort"
	"demsort/internal/blockio"
	"demsort/internal/cluster"
	"demsort/internal/cluster/tcp"
	"demsort/internal/elem"
	"demsort/internal/vtime"
)

// jobSpec is what the launcher hands each worker (as JSON in argv).
type jobSpec struct {
	Rank      int      `json:"rank"`
	Peers     []string `json:"peers"`
	Striped   bool     `json:"striped"`
	Store     string   `json:"store"` // "file" or "ram"
	Block     int      `json:"block"`
	Mem       int64    `json:"mem"`
	NPer      int64    `json:"n_per"`
	Randomize bool     `json:"randomize"`
	Input     string   `json:"input"`
	OutDir    string   `json:"out_dir"`
	WorkDir   string   `json:"work_dir"`
	Trace     bool     `json:"trace"`
}

// workerReport is one rank's measurements. Ready is the wall-clock
// instant tcp.New returned; Counts holds the backend's measured
// per-phase byte, block and message counts, which follow the code path
// a job took. The traced fields are zero in untraced jobs. Only
// measured Result fields are read (phase Wall, counts and
// PeakMemElems), never the modelled ones.
type workerReport struct {
	ReadyUnixNs int64            `json:"ready_unix_ns"`
	Counts      map[string]int64 `json:"counts"`

	ConnectS     float64            `json:"connect_s,omitempty"`
	SortS        float64            `json:"sort_s,omitempty"`
	PhaseWall    map[string]float64 `json:"phase_wall,omitempty"`
	PhaseChild   map[string]float64 `json:"phase_child,omitempty"`
	Counters     map[string]float64 `json:"counters,omitempty"`
	PeakMemBytes int64              `json:"peak_mem_bytes,omitempty"`
	GoAllocBytes uint64             `json:"go_alloc_bytes,omitempty"`
	GoGCCycles   uint32             `json:"go_gc_cycles,omitempty"`
}

func runWorker(specJSON string) error {
	var spec jobSpec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		return fmt.Errorf("worker: bad spec: %w", err)
	}
	var t *tracer
	var newStore func(rank int) (blockio.Store, error)
	if spec.Store == "file" {
		newStore = blockio.FileStoreFactory(spec.WorkDir, spec.Block)
	}
	if spec.Trace {
		t = newTracer()
		newStore = traceStores(t, newStore)
	}

	connectStart := time.Now()
	tm, err := tcp.New(tcp.Config{
		Rank:       spec.Rank,
		Peers:      spec.Peers,
		BlockBytes: spec.Block,
		MemElems:   spec.Mem,
		NewStore:   newStore,
		JobID:      "demsort",
	})
	if err != nil {
		return err
	}
	defer tm.Close()
	ready := time.Now()
	rep := workerReport{ReadyUnixNs: ready.UnixNano()}

	in, err := os.Open(spec.Input)
	if err != nil {
		return err
	}
	defer in.Close()
	source := func(rank int) (io.Reader, int64, error) {
		return io.NewSectionReader(in, int64(rank)*spec.NPer*100, spec.NPer*100), spec.NPer, nil
	}
	part, err := newPartFile(spec.OutDir, spec.Rank)
	if err != nil {
		return err
	}
	sink := func(_ int, b []byte) error { return part.Write(b) }

	var m cluster.Machine = tm
	var codec demsort.Codec[elem.Rec100] = demsort.Rec100Codec{}
	if t != nil {
		m = &tracedMachine{Machine: tm, t: t}
		codec = tracedCodec{t: t}
		source = traceSource(t, source)
		sink = traceSink(t, sink)
	}

	var startMem runtime.MemStats
	if t != nil {
		runtime.ReadMemStats(&startMem)
	}
	p := len(spec.Peers)
	sortStart := time.Now()
	var perPE map[string]*vtime.PhaseStats
	var peakMem int64
	if spec.Striped {
		opts := demsort.NewStripedOptions(p, spec.Mem, spec.Block)
		opts.Model = demsort.ScaledModel(spec.Block)
		opts.Randomize = spec.Randomize
		opts.Overlap = true
		opts.Seed = 1
		opts.Machine = m
		opts.Source = source
		opts.Sink = sink
		res, err := demsort.SortStriped[elem.Rec100](codec, opts, nil)
		if err != nil {
			return err
		}
		perPE, peakMem = res.PerPE[spec.Rank], res.PeakMemElems[spec.Rank]
	} else {
		opts := demsort.NewOptions(p, spec.Mem, spec.Block)
		opts.Model = demsort.ScaledModel(spec.Block)
		opts.Randomize = spec.Randomize
		opts.Overlap = true
		opts.Seed = 1
		opts.Machine = m
		opts.Source = source
		opts.Sink = sink
		res, err := demsort.Sort[elem.Rec100](codec, opts, nil)
		if err != nil {
			return err
		}
		perPE, peakMem = res.PerPE[spec.Rank], res.PeakMemElems[spec.Rank]
	}
	sortS := time.Since(sortStart).Seconds()
	if err := part.Close(); err != nil {
		return err
	}
	rep.Counts = pathCounts(perPE)

	if t != nil {
		var endMem runtime.MemStats
		runtime.ReadMemStats(&endMem)
		rep.ConnectS = ready.Sub(connectStart).Seconds()
		rep.SortS = sortS
		rep.PhaseWall = map[string]float64{}
		rep.PhaseChild = map[string]float64{}
		for name, st := range perPE {
			rep.PhaseWall[name] = st.Wall
			rep.PhaseChild[name] = t.childSeconds(name)
		}
		rep.Counters = t.counters()
		rep.PeakMemBytes = peakMem * 100
		rep.GoAllocBytes = endMem.TotalAlloc - startMem.TotalAlloc
		rep.GoGCCycles = endMem.NumGC - startMem.NumGC
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// pathCounts flattens the measured per-phase counts of Result.PerPE
// into "phase.field" entries.
func pathCounts(perPE map[string]*vtime.PhaseStats) map[string]int64 {
	c := map[string]int64{}
	for name, st := range perPE {
		c[name+".bytes_read"] = st.BytesRead
		c[name+".bytes_written"] = st.BytesWritten
		c[name+".blocks_read"] = st.BlocksRead
		c[name+".blocks_written"] = st.BlocksWritten
		c[name+".bytes_sent"] = st.BytesSent
		c[name+".bytes_recv"] = st.BytesRecv
		c[name+".messages"] = st.Messages
	}
	return c
}

// counters snapshots the tracer's layer counters by name (seconds for
// times, bytes and counts as they are).
func (t *tracer) counters() map[string]float64 {
	sec := func(v int64) float64 { return float64(v) / 1e9 }
	return map[string]float64{
		"store.read_s":         sec(t.storeReadNs.Load()),
		"store.write_s":        sec(t.storeWriteNs.Load()),
		"store.read_bytes":     float64(t.storeReadBytes.Load()),
		"store.write_bytes":    float64(t.storeWriteBytes.Load()),
		"store.ops":            float64(t.storeOps.Load()),
		"tcp.a2a_s":            sec(t.a2aNs.Load()),
		"tcp.a2a_bytes":        float64(t.a2aBytes.Load()),
		"tcp.stream_post_s":    sec(t.streamPostNs.Load()),
		"tcp.stream_collect_s": sec(t.streamCollectNs.Load()),
		"tcp.stream_bytes":     float64(t.streamBytes.Load()),
		"tcp.sync_s":           sec(t.syncNs.Load()),
		"tcp.calls":            float64(t.netCalls.Load()),
		"elem.decode_s":        sec(t.decodeNs.Load()),
		"elem.encode_s":        sec(t.encodeNs.Load()),
		"elem.keys_s":          sec(t.keysNs.Load()),
		"elem.decode_bytes":    float64(t.decodeBytes.Load()),
		"elem.encode_bytes":    float64(t.encodeBytes.Load()),
		"source.read_s":        sec(t.sourceNs.Load()),
		"sink.write_s":         sec(t.sinkNs.Load()),
	}
}

// partFile streams one rank's sorted partition to outdir/part-%03d with
// the CLI's discipline: write part-%03d.tmp through a buffer, then
// flush, fsync, rename and fsync the directory, so outdir never holds a
// truncated part.
type partFile struct {
	f    *os.File
	w    *bufio.Writer
	path string
}

func newPartFile(outdir string, rank int) (*partFile, error) {
	if err := os.MkdirAll(outdir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(outdir, fmt.Sprintf("part-%03d", rank))
	f, err := os.Create(path + ".tmp")
	if err != nil {
		return nil, err
	}
	return &partFile{f: f, w: bufio.NewWriterSize(f, 1<<20), path: path}, nil
}

func (p *partFile) Write(b []byte) error {
	_, err := p.w.Write(b)
	return err
}

func (p *partFile) Close() error {
	if err := p.w.Flush(); err != nil {
		return err
	}
	if err := p.f.Sync(); err != nil {
		return err
	}
	if err := p.f.Close(); err != nil {
		return err
	}
	if err := os.Rename(p.path+".tmp", p.path); err != nil {
		return err
	}
	return blockio.SyncDir(filepath.Dir(p.path))
}
