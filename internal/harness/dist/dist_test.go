package dist

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"jrs/internal/atomicfile"
	"jrs/internal/harness"
	"jrs/internal/harness/chaos"
)

// helloGrid is the cheapest real grid: hello's cells simulate in
// milliseconds, so protocol behavior dominates test time.
func helloGrid(exps ...string) GridSpec {
	return GridSpec{Experiments: exps, Opts: OptionsSpec{Quick: true, Workloads: []string{"hello"}}}
}

// serialOutput runs the grid on a serial local Runner and renders it
// exactly like cmd/jrs would — the byte-identity reference for every
// distributed run.
func serialOutput(t *testing.T, grid GridSpec) string {
	t.Helper()
	opts, err := grid.Opts.Options()
	if err != nil {
		t.Fatalf("opts: %v", err)
	}
	var exps []harness.Experiment
	for _, name := range grid.Experiments {
		e, ok := harness.Lookup(name)
		if !ok {
			t.Fatalf("unknown experiment %q", name)
		}
		exps = append(exps, e)
	}
	plans := make([]*harness.Plan, len(exps))
	for i, e := range exps {
		plans[i] = e.Plan(opts)
	}
	r := &harness.Runner{Workers: 1}
	if err := r.RunPlans(plans...); err != nil {
		t.Fatalf("serial run: %v", err)
	}
	if len(exps) == 1 {
		return plans[0].Result().Render()
	}
	return harness.RenderSections(exps, plans, false)
}

// startCoord boots a coordinator on a loopback port and tears it down
// with the test.
func startCoord(t *testing.T, cfg Config) (*Coordinator, string) {
	t.Helper()
	c := NewCoordinator(cfg)
	addr, err := c.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("start coordinator: %v", err)
	}
	t.Cleanup(c.Stop)
	return c, addr
}

// startWorkers launches n real workers against addr, each with its own
// injector seeds so faults don't strike in lockstep.
func startWorkers(t *testing.T, n int, addr *string, mu *sync.Mutex, cell chaos.Spec, net_ chaos.NetSpec) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	for i := 0; i < n; i++ {
		w := &Worker{
			Name: fmt.Sprintf("w%d", i+1),
			Dial: func() (net.Conn, error) {
				mu.Lock()
				a := *addr
				mu.Unlock()
				return net.DialTimeout("tcp", a, time.Second)
			},
			CellTimeout: 30 * time.Second,
		}
		if cell != (chaos.Spec{}) {
			s := cell
			s.Seed += int64(i) * 1000003
			w.Chaos = chaos.New(s)
		}
		if net_ != (chaos.NetSpec{}) {
			s := net_
			s.Seed += int64(i) * 1000003
			w.Net = chaos.NewNet(s)
		}
		go w.Run(ctx)
	}
}

// TestDistGridMatchesSerial is the base differential: three healthy
// workers, no chaos — merged output must be byte-identical to serial.
func TestDistGridMatchesSerial(t *testing.T) {
	grid := helloGrid("fig9")
	want := serialOutput(t, grid)

	_, addr := startCoord(t, Config{LeaseTTL: 2 * time.Second, Retries: 2})
	var mu sync.Mutex
	startWorkers(t, 3, &addr, &mu, chaos.Spec{}, chaos.NetSpec{})

	out, err := Submit(addr, grid, 30*time.Second)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if out.ExitCode != 0 {
		t.Fatalf("exit %d, err %q", out.ExitCode, out.ErrMsg)
	}
	if out.Output != want {
		t.Fatalf("distributed output differs from serial:\n--- serial ---\n%s\n--- dist ---\n%s", want, out.Output)
	}
}

// rawConn is a hand-rolled protocol client for poking the coordinator
// directly — the vehicle for the duplicate-delivery and lost-lease
// safety tests.
type rawConn struct {
	t  *testing.T
	c  net.Conn
	br *bufio.Reader
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	c, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return &rawConn{t: t, c: c, br: bufio.NewReader(c)}
}

func (r *rawConn) send(typ MsgType, msg any) {
	r.t.Helper()
	if err := WriteFrame(r.c, typ, msg); err != nil {
		r.t.Fatalf("send %s: %v", typ, err)
	}
}

func (r *rawConn) recv(into any) MsgType {
	r.t.Helper()
	r.c.SetReadDeadline(time.Now().Add(10 * time.Second))
	typ, payload, err := ReadFrame(r.br)
	if err != nil {
		r.t.Fatalf("recv: %v", err)
	}
	if into != nil {
		if err := DecodeInto(payload, into); err != nil {
			r.t.Fatalf("decode %s: %v", typ, err)
		}
	}
	return typ
}

// localGroups enumerates the grid the way a worker does, for computing
// payloads outside the Worker type.
func localGroups(t *testing.T, grid GridSpec) map[string]*harness.CellGroup {
	t.Helper()
	opts, err := grid.Opts.Options()
	if err != nil {
		t.Fatalf("opts: %v", err)
	}
	var plans []*harness.Plan
	for _, name := range grid.Experiments {
		e, ok := harness.Lookup(name)
		if !ok {
			t.Fatalf("unknown experiment %q", name)
		}
		plans = append(plans, e.Plan(opts))
	}
	m := make(map[string]*harness.CellGroup)
	for _, g := range harness.GroupPlans(plans...) {
		m[g.Key.Hash()] = g
	}
	return m
}

// leaseOrWait polls until the coordinator grants a lease.
func (r *rawConn) leaseOrWait(seq *uint64, worker string) Lease {
	r.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		*seq++
		r.send(MsgLeaseReq, LeaseReq{Seq: *seq, Worker: worker})
		var l Lease
		var w Wait
		typ, payload, err := ReadFrame(r.br)
		if err != nil {
			r.t.Fatalf("recv: %v", err)
		}
		switch typ {
		case MsgLease:
			if err := DecodeInto(payload, &l); err != nil {
				r.t.Fatalf("decode lease: %v", err)
			}
			return l
		case MsgWait:
			if err := DecodeInto(payload, &w); err != nil {
				r.t.Fatalf("decode wait: %v", err)
			}
			time.Sleep(time.Duration(w.Millis) * time.Millisecond)
		default:
			r.t.Fatalf("unexpected %s", typ)
		}
	}
	r.t.Fatal("no lease granted within deadline")
	return Lease{}
}

// TestDuplicateDeliveryCommitsOnce proves the at-most-once commit: the
// same successful result delivered twice is committed exactly once
// (first ack committed, second duplicate), and the merged grid is still
// byte-identical to serial.
func TestDuplicateDeliveryCommitsOnce(t *testing.T) {
	grid := helloGrid("fig9")
	want := serialOutput(t, grid)
	groups := localGroups(t, grid)

	c, addr := startCoord(t, Config{LeaseTTL: 5 * time.Second})

	outCh := make(chan Output, 1)
	go func() {
		out, err := Submit(addr, grid, 30*time.Second)
		if err != nil {
			t.Errorf("submit: %v", err)
		}
		outCh <- out
	}()

	wc := dialRaw(t, addr)
	wc.send(MsgHello, Hello{Worker: "fake", Build: atomicfile.Build()})
	var seq uint64
	duplicated := false
	for done := 0; done < len(groups); done++ {
		l := wc.leaseOrWait(&seq, "fake")
		g, ok := groups[l.Key.Hash()]
		if !ok {
			t.Fatalf("leased unknown cell %s", l.Key)
		}
		raw, err := g.Run(context.Background())
		if err != nil {
			t.Fatalf("run %s: %v", l.Key, err)
		}
		res := Result{Worker: "fake", LeaseID: l.LeaseID, Key: l.Key, Payload: raw}

		seq++
		res.Seq = seq
		wc.send(MsgResult, res)
		var ack Ack
		if typ := wc.recv(&ack); typ != MsgAck {
			t.Fatalf("want ack, got %s", typ)
		}
		if ack.Status != AckCommitted {
			t.Fatalf("first delivery of %s: want %s, got %s", l.Key, AckCommitted, ack.Status)
		}

		if !duplicated {
			// Redeliver the identical result: must NOT commit again.
			duplicated = true
			seq++
			res.Seq = seq
			wc.send(MsgResult, res)
			if typ := wc.recv(&ack); typ != MsgAck {
				t.Fatalf("want ack, got %s", typ)
			}
			if ack.Status != AckDuplicate {
				t.Fatalf("second delivery: want %s, got %s", AckDuplicate, ack.Status)
			}
		}
	}

	out := <-outCh
	if out.ExitCode != 0 {
		t.Fatalf("exit %d, err %q", out.ExitCode, out.ErrMsg)
	}
	if out.Output != want {
		t.Fatalf("output differs from serial after duplicate delivery:\n%s", out.Output)
	}
	if got := c.Committed(); got != int64(len(groups)) {
		t.Fatalf("committed %d results for %d cells (double-commit?)", got, len(groups))
	}
}

// TestLostLeaseRerun proves no leased-but-lost cell is dropped: a
// worker takes a lease and dies (connection cut); the cell must be
// re-leased to the next worker with the attempt count advanced, and the
// grid must still complete byte-identical to serial.
func TestLostLeaseRerun(t *testing.T) {
	grid := helloGrid("fig9")
	want := serialOutput(t, grid)
	groups := localGroups(t, grid)

	_, addr := startCoord(t, Config{LeaseTTL: 10 * time.Second, Retries: 2})

	outCh := make(chan Output, 1)
	go func() {
		out, err := Submit(addr, grid, 30*time.Second)
		if err != nil {
			t.Errorf("submit: %v", err)
		}
		outCh <- out
	}()

	// Worker A leases a cell and dies holding it.
	wa := dialRaw(t, addr)
	wa.send(MsgHello, Hello{Worker: "doomed", Build: atomicfile.Build()})
	var seqA uint64
	abandoned := wa.leaseOrWait(&seqA, "doomed")
	wa.c.Close() // eviction: the coordinator must reclaim the lease

	// Worker B drains the grid; it must see the abandoned cell again.
	wb := dialRaw(t, addr)
	wb.send(MsgHello, Hello{Worker: "healthy", Build: atomicfile.Build()})
	var seqB uint64
	attempts := make(map[string]int)
	for done := 0; done < len(groups); done++ {
		l := wb.leaseOrWait(&seqB, "healthy")
		attempts[l.Key.Hash()] = l.Attempt
		g := groups[l.Key.Hash()]
		raw, err := g.Run(context.Background())
		if err != nil {
			t.Fatalf("run %s: %v", l.Key, err)
		}
		seqB++
		wb.send(MsgResult, Result{Seq: seqB, Worker: "healthy", LeaseID: l.LeaseID, Key: l.Key, Payload: raw})
		var ack Ack
		wb.recv(&ack)
		if ack.Status != AckCommitted {
			t.Fatalf("%s: want committed, got %s", l.Key, ack.Status)
		}
	}
	if got := attempts[abandoned.Key.Hash()]; got < 2 {
		t.Fatalf("abandoned cell %s re-leased with attempt %d, want >= 2", abandoned.Key, got)
	}

	out := <-outCh
	if out.ExitCode != 0 {
		t.Fatalf("exit %d, err %q", out.ExitCode, out.ErrMsg)
	}
	if out.Output != want {
		t.Fatalf("output differs from serial after lost lease:\n%s", out.Output)
	}
}

// TestForeignBuildWorkerRefused: a connection whose Hello carries
// another build gets a refusal frame and is closed, and so does one
// that asks for a lease with no Hello; neither gets a lease or any
// other answer. The grid then completes on a worker of this build,
// byte-identical to serial.
func TestForeignBuildWorkerRefused(t *testing.T) {
	grid := helloGrid("fig9")
	want := serialOutput(t, grid)
	c, addr := startCoord(t, Config{LeaseTTL: 5 * time.Second})

	type submitted struct {
		out Output
		err error
	}
	done := make(chan submitted, 1)
	go func() {
		out, err := Submit(addr, grid, 30*time.Second)
		done <- submitted{out, err}
	}()

	for _, tc := range []struct {
		name  string
		hello *Hello
	}{
		{"foreign build", &Hello{Worker: "skewed", Build: "another-build"}},
		{"no hello", nil},
	} {
		rc := dialRaw(t, addr)
		if tc.hello != nil {
			rc.send(MsgHello, *tc.hello)
		}
		// The coordinator may already have closed the connection, so
		// this write may fail; the refusal is still there to read.
		WriteFrame(rc.c, MsgLeaseReq, LeaseReq{Seq: 1, Worker: "skewed"})
		rc.c.SetReadDeadline(time.Now().Add(10 * time.Second))
		typ, payload, err := ReadFrame(rc.br)
		var r Refused
		if err != nil || typ != MsgRefused || DecodeInto(payload, &r) != nil || r.Reason == "" {
			t.Fatalf("%s: got a %s frame %q (err %v), want a refusal with a reason", tc.name, typ, payload, err)
		}
		if typ, _, err := ReadFrame(rc.br); err == nil {
			t.Fatalf("%s: coordinator sent a %s frame after the refusal, want the connection closed", tc.name, typ)
		} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatalf("%s: connection left open after the refusal: %v", tc.name, err)
		}
	}
	if got := c.Committed(); got != 0 {
		t.Fatalf("%d cells committed before any accepted worker", got)
	}

	var mu sync.Mutex
	startWorkers(t, 1, &addr, &mu, chaos.Spec{}, chaos.NetSpec{})
	s := <-done
	if s.err != nil {
		t.Fatalf("submit: %v", s.err)
	}
	if out := s.out; out.ExitCode != 0 || out.Output != want {
		t.Fatalf("exit %d, err %q; output differs from serial:\n%s", out.ExitCode, out.ErrMsg, out.Output)
	}
}

// TestRefusedWorkerStops: a worker whose Hello is answered with a
// refusal returns ErrRefused from Run after that one round trip, and
// never dials again.
func TestRefusedWorkerStops(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			if typ, _, err := ReadFrame(bufio.NewReader(c)); err == nil && typ == MsgHello {
				WriteFrame(c, MsgRefused, Refused{Reason: "build other"})
			}
			c.Close()
		}
	}()
	var mu sync.Mutex
	dials := 0
	w := &Worker{Name: "w", Dial: func() (net.Conn, error) {
		mu.Lock()
		dials++
		mu.Unlock()
		return net.Dial("tcp", ln.Addr().String())
	}}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	err = w.Run(ctx)
	if !errors.Is(err, ErrRefused) || !strings.Contains(err.Error(), "build other") {
		t.Fatalf("Run returned %v after %v, want the refusal", err, time.Since(start))
	}
	mu.Lock()
	defer mu.Unlock()
	if dials != 1 {
		t.Fatalf("worker dialed %d times, want 1", dials)
	}
}

// TestKeepGoingDegradedReport drives every cell into deterministic
// failure under -keepgoing: the job must drain, exit 3, and the report
// must attribute each failure to the worker that ran it.
func TestKeepGoingDegradedReport(t *testing.T) {
	grid := helloGrid("fig9")
	_, addr := startCoord(t, Config{LeaseTTL: 2 * time.Second, KeepGoing: true})
	var mu sync.Mutex
	startWorkers(t, 2, &addr, &mu, chaos.Spec{Seed: 3, ErrRate: 1.0, UpTo: 999}, chaos.NetSpec{})

	out, err := Submit(addr, grid, 30*time.Second)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if out.ExitCode != 3 {
		t.Fatalf("degraded run: want exit 3, got %d (err %q)", out.ExitCode, out.ErrMsg)
	}
	for _, want := range []string{"run report:", "workers:", "FAIL", "worker=w"} {
		if !strings.Contains(out.Report, want) {
			t.Errorf("report missing %q:\n%s", want, out.Report)
		}
	}
}

// TestUnknownExperimentIsUsageError: a bad grid is rejected with the
// usage exit code, not a crash or a hang.
func TestUnknownExperimentIsUsageError(t *testing.T) {
	_, addr := startCoord(t, Config{})
	out, err := Submit(addr, helloGrid("no-such-figure"), 10*time.Second)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if out.ExitCode != 2 || out.ErrMsg == "" {
		t.Fatalf("want usage error (exit 2 + message), got exit %d err %q", out.ExitCode, out.ErrMsg)
	}
}
