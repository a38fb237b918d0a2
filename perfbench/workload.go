package main

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"slices"

	"demsort/internal/elem"
	"demsort/internal/sortbench"
)

// workload is one fleet shape and input kind. Records are
// SortBenchmark 100-byte records; mem is M in records per rank.
type workload struct {
	name      string
	ranks     int    // worker processes (P)
	procs     int    // GOMAXPROCS of each worker
	striped   bool   // the §III globally striped sorter instead of CANONICALMERGESORT
	store     string // "file" or "ram"
	presorted bool   // each rank's tile stably pre-sorted (the paper's worst case)
	randomize bool
	runs      int   // R: each rank holds exactly runs × runLocal() records
	mem       int64 // records of internal memory per rank
	block     int   // block size in bytes
}

// The fleet workloads run ranks × procs = 2 threads, the host's nproc.
var workloads = []workload{
	{name: "canon-uniform", ranks: 2, procs: 1, store: "file", randomize: true,
		runs: 8, mem: 1 << 18, block: 256 << 10},
	{name: "canon-worstcase-tight", ranks: 2, procs: 1, store: "file", presorted: true,
		runs: 32, mem: 1 << 16, block: 32 << 10},
	{name: "striped-ram", ranks: 2, procs: 1, striped: true, store: "ram", randomize: true,
		runs: 8, mem: 1 << 18, block: 256 << 10},
	{name: "single-node", ranks: 1, procs: 2, store: "file", randomize: true,
		runs: 16, mem: 1 << 18, block: 256 << 10},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// runLocal is the per-rank share of one run in records, as
// CANONICALMERGESORT derives it (RunFraction 0.25 of M, rounded down to
// whole blocks). The striped sorter's runs are a fifth of M instead.
func (w workload) runLocal() int64 {
	bElem := int64(w.block / 100)
	return max(1, w.mem/4/bElem) * bElem
}

// nPer is the records per rank.
func (w workload) nPer() int64 { return int64(w.runs) * w.runLocal() }

func (w workload) inputBytes() int64 { return int64(w.ranks) * w.nPer() * 100 }

// writeInput writes the workload's gensort-format input for seed to
// path: rank r's tile is records [r·nPer, (r+1)·nPer) of the sortbench
// generator, stably sorted by key when the workload is pre-sorted. It
// returns the input's valsort summary.
func writeInput(w workload, seed uint64, path string) (sortbench.Summary, error) {
	f, err := os.Create(path)
	if err != nil {
		return sortbench.Summary{}, err
	}
	defer f.Close()
	out := bufio.NewWriterSize(f, 1<<20)
	for r := int64(0); r < int64(w.ranks); r++ {
		if w.presorted {
			tile := sortbench.Generate(seed, r*w.nPer(), w.nPer())
			for _, i := range stableKeyOrder(tile) {
				if _, err := out.Write(tile[i][:]); err != nil {
					return sortbench.Summary{}, err
				}
			}
			continue
		}
		if _, err := io.Copy(out, sortbench.NewReader(seed, r*w.nPer(), w.nPer())); err != nil {
			return sortbench.Summary{}, err
		}
	}
	if err := out.Flush(); err != nil {
		return sortbench.Summary{}, err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return sortbench.Summary{}, err
	}
	sum, err := sortbench.SummarizeReader(bufio.NewReaderSize(f, 1<<20))
	if err != nil {
		return sortbench.Summary{}, err
	}
	return sum, f.Close()
}

// stableKeyOrder returns the indices of recs in stable 10-byte key
// order. It sorts small (key, index) entries instead of the 100-byte
// records, which keeps input generation short.
func stableKeyOrder(recs []elem.Rec100) []int32 {
	type entry struct {
		hi  uint64 // key bytes 0–7
		lo  uint16 // key bytes 8–9
		idx int32
	}
	es := make([]entry, len(recs))
	for i := range recs {
		es[i] = entry{binary.BigEndian.Uint64(recs[i][:8]), binary.BigEndian.Uint16(recs[i][8:10]), int32(i)}
	}
	slices.SortFunc(es, func(a, b entry) int {
		return cmp.Or(cmp.Compare(a.hi, b.hi), cmp.Compare(a.lo, b.lo), cmp.Compare(a.idx, b.idx))
	})
	order := make([]int32, len(es))
	for i, e := range es {
		order[i] = e.idx
	}
	return order
}
