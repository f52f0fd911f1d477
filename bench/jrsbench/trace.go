package main

import (
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"jrs/internal/harness"
)

// span is one timed interval at a layer boundary, recorded from the
// benchmark's side of the call. An aggregate span (Calls > 0) stands for
// many short calls into one sink during its parent span: End−Start is
// their summed time and Calls their number.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Cell   string        `json:"cell"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Calls  int64         `json:"calls,omitempty"`
}

// recorder keeps a traced run's spans and counts in memory. Spans are
// recorded from one goroutine; the connection counters are atomic. A nil
// recorder records nothing, which is how untraced runs share the traced
// code paths.
type recorder struct {
	epoch time.Time
	spans []span
	open  []int

	runs                     int
	interpInsts, nativeInsts uint64
	translateInsts           uint64
	translations             int
	batches, batchInsts      int64
	sinkInsts                map[string]int64
	cacheRefs, cacheMisses   uint64
	transfers, mispredicts   uint64
	cycles, squash, replays  uint64
	cells                    int
	cellSpecs                map[string]bool
	cacheEntries, cacheSize  int64
	journalRecords           int

	wireBytes, connWrites, connWait atomic.Int64
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), sinkInsts: map[string]int64{}, cellSpecs: map[string]bool{}}
}

// openSpan ends a span started by recorder.start.
type openSpan struct {
	r  *recorder
	id int
}

func (r *recorder) parent() int {
	if len(r.open) == 0 {
		return -1
	}
	return r.open[len(r.open)-1]
}

// start opens a span nested in the innermost open one.
func (r *recorder) start(name, cell string) openSpan {
	if r == nil {
		return openSpan{}
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: r.parent(), Name: name, Cell: cell, Start: time.Since(r.epoch)})
	r.open = append(r.open, id)
	return openSpan{r, id}
}

func (s openSpan) end() {
	if s.r == nil {
		return
	}
	s.r.spans[s.id].End = time.Since(s.r.epoch)
	s.r.open = s.r.open[:len(s.r.open)-1]
}

// aggregate records calls into one layer, summed, as a child of the
// innermost open span.
func (r *recorder) aggregate(name, cell string, total time.Duration, calls int64) {
	if r == nil || calls == 0 {
		return
	}
	p := r.parent()
	at := r.spans[p].Start
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: p, Name: name, Cell: cell, Start: at, End: at + total, Calls: calls})
}

// dial opens a worker connection. Traced, the recorder counts its
// traffic: bytes both ways, write calls, and the time spent blocked
// reading, which is the time the worker waited on the coordinator.
func (r *recorder) dial(addr string) (net.Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil || r == nil {
		return c, err
	}
	return &countedConn{Conn: c, r: r}, nil
}

type countedConn struct {
	net.Conn
	r *recorder
}

func (c *countedConn) Read(b []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Read(b)
	c.r.connWait.Add(int64(time.Since(t0)))
	c.r.wireBytes.Add(int64(n))
	return n, err
}

func (c *countedConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.r.wireBytes.Add(int64(n))
	c.r.connWrites.Add(1)
	return n, err
}

// inspect counts a dist pass's result-cache entries and bytes, and
// reopens its journal (the coordinator has released it) to count the
// records.
func (r *recorder) inspect(dir string) error {
	if r == nil {
		return nil
	}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".json") {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		r.cacheEntries++
		r.cacheSize += info.Size()
		return nil
	})
	if err != nil {
		return err
	}
	j, err := harness.OpenJournal(filepath.Join(dir, harness.JournalName))
	if err != nil {
		return err
	}
	r.journalRecords += j.Len()
	return j.Close()
}

// tracedRun is the per-layer run of one workload. In one process it runs
// a cold and an untraced pass, mirrors the engine work once untraced (the
// reference for the tracing overhead), and then, under the recorder,
// replays the pass cell by cell, mirrors it again and probes every layer.
func tracedRun(o options, d workloadDef, stdout, stderr io.Writer) (*result, error) {
	runtime.GOMAXPROCS(workers)
	in, err := newInputs(d, o.seed)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "%s inputs seed=%d %s\n", d.name, o.seed, in)
	e, err := newEnv(o.root)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(e.work)
	res := newResult(d.name)
	cold, err := runPass(e, in, 0, workers)
	if err != nil {
		return nil, err
	}
	for _, msg := range gateCold(o.root, in, cold) {
		res.fail("%s", msg)
	}
	checkPinned(o, d.name, cold.digest(), res)
	t0 := time.Now()
	base, err := runPass(e, in, 1, workers)
	if err != nil {
		return nil, err
	}
	wall := time.Since(t0)
	for _, msg := range gatePass(in, 1, cold, base) {
		res.fail("%s", msg)
	}
	res.Attempted, res.Failed = base.cells, base.failed

	t0 = time.Now()
	for _, msg := range mirror(e, in, 2, nil) {
		res.fail("%s", msg)
	}
	plain := time.Since(t0)

	rec := newRecorder()
	te := &env{work: e.work, rec: rec}
	u0 := sampleUsage()
	root := rec.start("traced", d.name)
	errs := replay(rec, in, cold)
	ms := rec.start("mirror", d.name)
	errs = append(errs, mirror(te, in, 2, base)...)
	ms.end()
	errs = append(errs, probe(te)...)
	root.end()
	u1 := sampleUsage()
	for _, msg := range errs {
		res.fail("%s", msg)
	}
	layerMetrics(rec, res, wall, plain, u1, u0)
	if o.spansOut != "" {
		if err := writeSpans(o.spansOut, rec.spans); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func writeSpans(path string, spans []span) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// groupSpans only group other spans; their self time is the benchmark's
// own glue, which must stay under 5% of the traced wall time.
var groupSpans = map[string]bool{"traced": true, "replay": true, "mirror": true, "probe": true}

// layerMetrics turns the spans and counts into the per-layer metrics.
// wall is the untraced pass's wall time and plain the untraced mirror's.
func layerMetrics(rec *recorder, res *result, wall, plain time.Duration, u1, u0 usage) {
	dur := func(s span) float64 { return (s.End - s.Start).Seconds() }
	self := make([]float64, len(rec.spans))
	for i, s := range rec.spans {
		self[i] += dur(s)
		if s.Parent >= 0 {
			self[s.Parent] -= dur(s)
		}
	}
	layer := map[string]float64{}
	var cellTimes []float64
	var glue, analysisReplay, mirrorDur float64
	for i, s := range rec.spans {
		if groupSpans[s.Name] {
			glue += self[i]
			if s.Name == "mirror" {
				mirrorDur = dur(s)
			}
			continue
		}
		layer[s.Name] += self[i]
		switch {
		case s.Name == "cell":
			cellTimes = append(cellTimes, dur(s))
		case s.Name == "analysis" && strings.HasPrefix(s.Cell, "analyze/"):
			analysisReplay += dur(s)
		}
	}
	traced := dur(rec.spans[0])
	if glue > 0.05*traced {
		res.fail("layer self times cover %.1f%% of the traced wall time, not 95%%", 100*(traced-glue)/traced)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	ns := func(secs float64, insts uint64) float64 { return ratio(secs*1e9, float64(insts)) }
	sort.Float64s(cellTimes)
	var cellSum, cellMax float64
	for _, c := range cellTimes {
		cellSum += c
		cellMax = c
	}
	set := func(name string, v float64, unit string) { res.set(name, metric{Value: v, Unit: unit}) }
	set("minijava.compile_s", layer["minijava.compile"], "s")
	set("vm.load_s", layer["vm.load"], "s")
	set("analysis.s", layer["analysis"], "s")
	set("jit.translate_s", layer["jit.translate"], "s")
	set("jit.translate_minst", float64(rec.translateInsts)/1e6, "Minst")
	set("jit.translations", float64(rec.translations), "count")
	set("interp.self_s", layer["interp"], "s")
	set("interp.ns_per_inst", ns(layer["interp"], rec.interpInsts), "ns")
	set("native.self_s", layer["native"], "s")
	set("native.ns_per_inst", ns(layer["native"], rec.nativeInsts), "ns")
	set("trace.batches", float64(rec.batches), "count")
	set("trace.insts_per_batch", ratio(float64(rec.batchInsts), float64(rec.batches)), "inst")
	sinkTime := func(l string) {
		set(l+".self_s", layer[l], "s")
		set(l+".ns_per_inst", ns(layer[l], uint64(rec.sinkInsts[l])), "ns")
	}
	sinkTime("cache")
	set("cache.refs", float64(rec.cacheRefs), "count")
	set("cache.misses", float64(rec.cacheMisses), "count")
	sinkTime("branch")
	set("branch.transfers", float64(rec.transfers), "count")
	set("branch.mispredicts", float64(rec.mispredicts), "count")
	sinkTime("pipeline")
	set("pipeline.cycles", float64(rec.cycles), "count")
	set("pipeline.squash_cycles", float64(rec.squash), "count")
	set("pipeline.mem_replays", float64(rec.replays), "count")
	set("runtime.gc_cpu_s", u1.gcCPU-u0.gcCPU, "s")
	set("runtime.gc_cycles", float64(u1.gcCycles-u0.gcCycles), "count")
	set("harness.cells", float64(rec.cells), "count")
	set("harness.engine_runs", float64(rec.runs), "count")
	set("harness.engine_specs", float64(len(rec.cellSpecs)), "count")
	set("harness.cell_sum_s", cellSum, "s")
	set("harness.cell_p50_s", median(cellTimes), "s")
	set("harness.cell_max_s", cellMax, "s")
	set("harness.parallel_eff", ratio(cellSum+analysisReplay, workers*wall.Seconds()), "ratio")
	set("dist.cold_s", layer["dist.cold"], "s")
	set("dist.warm_s", layer["dist.warm"], "s")
	set("dist.wire_bytes", float64(rec.wireBytes.Load()), "B")
	set("dist.conn_writes", float64(rec.connWrites.Load()), "count")
	set("dist.worker_wait_s", time.Duration(rec.connWait.Load()).Seconds(), "s")
	set("resultcache.entries", float64(rec.cacheEntries), "count")
	set("resultcache.bytes", float64(rec.cacheSize), "B")
	set("journal.records", float64(rec.journalRecords), "count")
	set("trace_overhead_frac", ratio(mirrorDur, plain.Seconds())-1, "ratio")
}
