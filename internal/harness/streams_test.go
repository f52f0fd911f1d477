package harness

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"slices"
	"strings"
	"sync"
	"testing"

	"jrs/internal/core"
	"jrs/internal/jit"
	"jrs/internal/trace"
	"jrs/internal/workloads"
)

// streamDigest is a sink that hashes every field of every instruction
// it sees, in order: two streams with equal digests agree in each
// instruction's PC, addresses, class, phase, outcome and registers, so
// a change that moves only registers or the order within a phase shows
// even where every counter and payload stays the same.
type streamDigest struct {
	h   hash.Hash
	n   uint64
	buf []byte
}

func newStreamDigest() *streamDigest { return &streamDigest{h: sha256.New()} }

func (d *streamDigest) Emit(in trace.Inst) { d.EmitBatch([]trace.Inst{in}) }

func (d *streamDigest) EmitBatch(batch []trace.Inst) {
	b := d.buf[:0]
	for i := range batch {
		in := &batch[i]
		b = binary.LittleEndian.AppendUint64(b, in.PC)
		b = binary.LittleEndian.AppendUint64(b, in.Addr)
		b = binary.LittleEndian.AppendUint64(b, in.Target)
		taken := byte(0)
		if in.Taken {
			taken = 1
		}
		b = append(b, byte(in.Class), byte(in.Phase), taken, in.Src1, in.Src2, in.Dst)
	}
	d.h.Write(b)
	d.buf = b
	d.n += uint64(len(batch))
}

// String is the instruction count and the first 16 hex digits of the
// digest.
func (d *streamDigest) String() string {
	return fmt.Sprintf("insts=%d stream=%s", d.n, hex.EncodeToString(d.h.Sum(nil))[:16])
}

// tapStreams digests the whole stream of every engine run f makes and
// returns one line per run, "<name> <mode> insts=… stream=…", sorted.
func tapStreams(t *testing.T, f func()) []string {
	t.Helper()
	var mu sync.Mutex
	type run struct {
		name string
		mode Mode
		d    *streamDigest
	}
	var runs []run
	tap := func(name string, mode Mode) trace.Sink {
		d := newStreamDigest()
		mu.Lock()
		runs = append(runs, run{name, mode, d})
		mu.Unlock()
		return d
	}
	runTap.Store(&tap)
	defer runTap.Store(nil)
	f()
	lines := make([]string, len(runs))
	for i, r := range runs {
		lines[i] = fmt.Sprintf("%s %v %s", r.name, r.mode, r.d)
	}
	slices.Sort(lines)
	return lines
}

// streamCase is one engine configuration the stream pin runs at a
// workload's bench scale.
type streamCase struct {
	name string
	mode Mode
	cfg  core.Config
}

func streamCases() []streamCase {
	noDevirt := jit.DefaultOptions()
	noDevirt.Devirtualize = false
	register := jit.DefaultOptions()
	register.BaselineCodegen = false
	return []streamCase{
		{"interp", ModeInterp, core.Config{}},
		{"jit", ModeJIT, core.Config{}},
		{"jit-nodevirt", ModeJIT, core.Config{JITOptions: noDevirt}},
		{"jit-register", ModeJIT, core.Config{JITOptions: register}},
		{"jit-devirt", ModeJIT, core.Config{Devirt: true}},
		{"jit-checks", ModeJIT, core.Config{ElideBounds: true, ElideNull: true}},
		{"jit-nullchecks", ModeJIT, core.Config{ElideNull: true}},
		{"jit-elide-locks", ModeJIT, core.Config{ElideLocks: true, Devirt: true}},
		{"aot", ModeAOT, core.Config{}},
		{"tiered", ModeJIT, core.Config{Policy: core.Tiered{N1: 2, N2: 20}}},
	}
}

// TestStreamDigests pins a digest of the whole instruction stream of
// every engine run: each run of the registry's hello grid (one serial
// Runner, as TestGridEngineRuns runs it) and each configuration of
// streamCases on javac and jess at their bench scale, class loading and
// AOT precompilation included. The bench-scale runs go twice on the
// shared programs, and the second pass must give the first pass's
// streams.
// Refresh with:
//
//	go test ./internal/harness -run TestStreamDigests -update
func TestStreamDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the hello grid and forty bench-scale engine runs under a stream digest")
	}
	grid := tapStreams(t, func() {
		var plans []*Plan
		for _, e := range Experiments() {
			plans = append(plans, e.Plan(helloOpts()))
		}
		if err := (&Runner{Workers: 1}).RunPlans(plans...); err != nil {
			t.Fatal(err)
		}
	})
	var passes [2]string
	for pass := range passes {
		var b strings.Builder
		for _, name := range []string{"javac", "jess"} {
			w, _ := workloads.ByName(name)
			for _, c := range streamCases() {
				lines := tapStreams(t, func() {
					if _, err := RunCtx(context.Background(), w, w.BenchN, c.mode, c.cfg); err != nil {
						t.Fatalf("%s/%s: %v", w.Name, c.name, err)
					}
				})
				if len(lines) != 1 {
					t.Fatalf("%s/%s: %d engine runs, want 1", w.Name, c.name, len(lines))
				}
				fmt.Fprintf(&b, "%s@%d %s: %s\n", w.Name, w.BenchN, c.name, lines[0])
			}
		}
		passes[pass] = b.String()
	}
	if passes[1] != passes[0] {
		t.Errorf("a second pass of the bench-scale runs streams differently:\n%s", firstDiff(passes[1], passes[0]))
	}
	checkGolden(t, "cells/streams.txt", strings.Join(grid, "\n")+"\n"+passes[0])
}
