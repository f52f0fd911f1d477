package branch

import (
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"
	"testing/quick"

	"jrs/internal/trace"
)

func TestSat2(t *testing.T) {
	c := sat2(0)
	for i := 0; i < 5; i++ {
		c = c.update(true)
	}
	if c != 3 || !c.taken() {
		t.Fatalf("saturate up: %d", c)
	}
	for i := 0; i < 5; i++ {
		c = c.update(false)
	}
	if c != 0 || c.taken() {
		t.Fatalf("saturate down: %d", c)
	}
}

func TestBHTLearnsStableBranch(t *testing.T) {
	p := NewBHT(256)
	pc := uint64(0x400)
	miss := 0
	for i := 0; i < 100; i++ {
		if p.Predict(pc) != true {
			miss++
		}
		p.Update(pc, true)
	}
	if miss > 2 {
		t.Fatalf("BHT should learn always-taken quickly, missed %d", miss)
	}
}

func TestGshareLearnsAlternating(t *testing.T) {
	p := NewGshare(1024, 5)
	pc := uint64(0x88)
	miss := 0
	for i := 0; i < 400; i++ {
		taken := i%2 == 0
		if p.Predict(pc) != taken {
			miss++
		}
		p.Update(pc, taken)
	}
	// After warmup the global history disambiguates the alternation.
	if miss > 40 {
		t.Fatalf("gshare should learn the alternating pattern, missed %d/400", miss)
	}

	// A plain BHT cannot: it hovers around 50%+.
	b := NewBHT(1024)
	bmiss := 0
	for i := 0; i < 400; i++ {
		taken := i%2 == 0
		if b.Predict(pc) != taken {
			bmiss++
		}
		b.Update(pc, taken)
	}
	if bmiss < 100 {
		t.Fatalf("BHT unexpectedly good on alternation: %d/400", bmiss)
	}
}

func TestGApLearnsPerAddressPattern(t *testing.T) {
	p := NewGAp(1024, 8, 256)
	pc := uint64(0x1234)
	// Pattern with period 3: T T N.
	miss := 0
	for i := 0; i < 600; i++ {
		taken := i%3 != 2
		if p.Predict(pc) != taken {
			miss++
		}
		p.Update(pc, taken)
	}
	if miss > 80 {
		t.Fatalf("GAp should learn period-3 pattern, missed %d/600", miss)
	}
}

func TestBTB(t *testing.T) {
	b := NewBTB(64)
	if _, ok := b.Lookup(0x40); ok {
		t.Fatal("empty BTB should miss")
	}
	b.Update(0x40, 0x1000)
	if tgt, ok := b.Lookup(0x40); !ok || tgt != 0x1000 {
		t.Fatal("BTB should return installed target")
	}
	// Aliasing entry (same index, different tag) replaces.
	b.Update(0x40+64*4, 0x2000)
	if _, ok := b.Lookup(0x40); ok {
		t.Fatal("aliased entry should evict")
	}
}

func TestUnitDirectVsIndirect(t *testing.T) {
	u := NewUnit(NewTwoBit(), 64)
	// Direct call: first sight mispredicts (BTB cold), then hits.
	u.Observe(trace.Inst{PC: 4, Class: trace.Call, Target: 0x100, Taken: true})
	u.Observe(trace.Inst{PC: 4, Class: trace.Call, Target: 0x100, Taken: true})
	if u.Stats.DirectMispredicts != 1 || u.Stats.Directs != 2 {
		t.Fatalf("direct stats: %+v", u.Stats)
	}
	// Indirect jump alternating targets: near-always mispredicts.
	for i := 0; i < 10; i++ {
		tgt := uint64(0x200)
		if i%2 == 1 {
			tgt = 0x300
		}
		u.Observe(trace.Inst{PC: 8, Class: trace.IndirectJump, Target: tgt, Taken: true})
	}
	if u.Stats.IndirectMispredicts < 9 {
		t.Fatalf("alternating indirect should mispredict nearly always: %+v", u.Stats)
	}
}

func TestUnitConditional(t *testing.T) {
	u := NewUnit(NewBHT(64), 64)
	for i := 0; i < 50; i++ {
		u.Observe(trace.Inst{PC: 16, Class: trace.Branch, Target: 0x80, Taken: true})
	}
	if rate := u.Stats.MispredictRate(); rate > 0.1 {
		t.Fatalf("stable taken branch mispredict rate %.2f", rate)
	}
	// Not-taken branches need no BTB.
	u2 := NewUnit(NewBHT(64), 64)
	for i := 0; i < 50; i++ {
		u2.Observe(trace.Inst{PC: 24, Class: trace.Branch, Taken: false})
	}
	if u2.Stats.CondMispredicts > 2 {
		t.Fatalf("stable not-taken mispredicts: %d", u2.Stats.CondMispredicts)
	}
}

func TestSuiteCountsAllUnits(t *testing.T) {
	s := NewSuite()
	if len(s.Units) != 4 {
		t.Fatalf("suite has %d units", len(s.Units))
	}
	s.Emit(trace.Inst{PC: 4, Class: trace.Branch, Target: 8, Taken: true})
	s.Emit(trace.Inst{PC: 12, Class: trace.ALU}) // ignored
	for i, u := range s.Units {
		if u.Stats.Transfers() != 1 {
			t.Errorf("unit %d transfers = %d", i, u.Stats.Transfers())
		}
	}
}

// Property: mispredicts never exceed transfers, for any event stream.
func TestUnitInvariantProperty(t *testing.T) {
	f := func(events []uint16) bool {
		u := NewUnit(NewGshare(256, 5), 64)
		for _, e := range events {
			cl := trace.Class(e % 10)
			if !cl.IsControl() {
				continue
			}
			u.Observe(trace.Inst{
				PC:     uint64(e&0xF0) * 4,
				Class:  cl,
				Target: uint64(e&0x0F) * 64,
				Taken:  e&1 == 0 || cl != trace.Branch,
			})
		}
		return u.Stats.Mispredicts() <= u.Stats.Transfers()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsRates(t *testing.T) {
	s := Stats{CondBranches: 50, CondMispredicts: 10, Indirects: 50, IndirectMispredicts: 40}
	if s.MispredictRate() != 0.5 {
		t.Fatalf("rate %v", s.MispredictRate())
	}
	if s.Accuracy() != 0.5 {
		t.Fatalf("accuracy %v", s.Accuracy())
	}
	var zero Stats
	if zero.MispredictRate() != 0 {
		t.Fatal("zero division")
	}
}

func TestPredictorNames(t *testing.T) {
	names := map[string]DirPredictor{
		"2bit":   NewTwoBit(),
		"BHT":    NewBHT(16),
		"gshare": NewGshare(16, 4),
		"GAp":    NewGAp(16, 4, 16),
	}
	for want, p := range names {
		if p.Name() != want {
			t.Errorf("name %q != %q", p.Name(), want)
		}
	}
}

// TestUnitResetMatchesNew dirties every predictor the units are built
// from (each direction scheme, the BTB and the target cache) and resets
// the unit: its tables, histories and statistics must then equal a new
// unit's, and it must predict and count exactly as the new one does.
func TestUnitResetMatchesNew(t *testing.T) {
	units := map[string]func() *Unit{
		"2bit":     func() *Unit { return NewUnit(NewTwoBit(), 64) },
		"BHT":      func() *Unit { return NewUnit(NewBHT(256), 64) },
		"gshare":   func() *Unit { return NewUnit(NewGshare(256, 5), 64) },
		"GAp":      func() *Unit { return NewUnit(NewGAp(256, 8, 64), 64) },
		"indirect": NewIndirectUnit,
	}
	seed := uint64(1)
	events := func(n int) []trace.Inst {
		out := make([]trace.Inst, 0, n)
		for len(out) < n {
			seed = seed*6364136223846793005 + 1442695040888963407
			e := seed >> 33
			cl := trace.Class(e % 10)
			if !cl.IsControl() {
				continue
			}
			out = append(out, trace.Inst{PC: (e >> 4 & 0x3FF) * 4, Class: cl,
				Target: (e >> 14 & 0xFF) * 64, Taken: e>>22&1 == 0 || cl != trace.Branch})
		}
		return out
	}
	for name, mk := range units {
		u, fresh := mk(), mk()
		for _, in := range events(5000) {
			u.Observe(in)
		}
		u.Reset()
		if !reflect.DeepEqual(u, fresh) {
			t.Fatalf("%s: state after Reset differs from a new unit's", name)
		}
		for i, in := range events(5000) {
			if got, want := u.Observe(in), fresh.Observe(in); got != want {
				t.Fatalf("%s: event %d after Reset mispredicted=%t, fresh unit %t", name, i, got, want)
			}
		}
		if u.Stats != fresh.Stats {
			t.Fatalf("%s: after Reset %+v, fresh %+v", name, u.Stats, fresh.Stats)
		}
	}
}

// TestSuiteReleaseMatchesNew: a dirtied suite that is released and
// taken back by NewSuite is in a new suite's state, and a second
// Release of one suite panics. Two collections empty the pool first, so
// the suite compared against is built, not reused.
func TestSuiteReleaseMatchesNew(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	s := NewSuite()
	for i := uint64(0); i < 5000; i++ {
		s.Emit(trace.Inst{PC: i % 700 * 4, Class: trace.Class(i % 10), Target: i % 37 * 64, Taken: i%3 != 0})
	}
	runtime.GC()
	runtime.GC()
	fresh := NewSuite()
	s.Release()
	if back := NewSuite(); !reflect.DeepEqual(back, fresh) {
		t.Fatal("a released suite taken back by NewSuite differs from a new suite")
	}
	fresh.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("a second Release did not panic")
		}
	}()
	fresh.Release()
}
