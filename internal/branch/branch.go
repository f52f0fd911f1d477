// Package branch implements the four branch predictors of the paper's
// Table 2 — a simple 2-bit predictor, a one-level branch history table
// (BHT), Gshare, and a two-level per-address predictor (GAp) — together
// with a branch target buffer (BTB) for the indirect transfers that
// dominate interpreter execution.
//
// A misprediction is charged when a conditional branch's direction is
// predicted wrong, or when a control transfer's target cannot be supplied
// correctly by the BTB (indirect jumps, indirect calls, returns, and taken
// branches/calls whose target misses in the BTB). Direct unconditional
// transfers with a BTB hit are free, as in the paper's trace-driven
// methodology.
package branch

// sat2 is a saturating 2-bit counter. Values 0-1 predict not-taken, 2-3
// predict taken.
type sat2 uint8

func (c sat2) taken() bool { return c >= 2 }

func (c sat2) update(taken bool) sat2 {
	if taken {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > 0 {
		return c - 1
	}
	return c
}

// DirPredictor predicts conditional branch directions.
type DirPredictor interface {
	// Name identifies the scheme in reports.
	Name() string
	// Predict returns the predicted direction for the branch at pc.
	Predict(pc uint64) bool
	// Update trains the predictor with the resolved direction.
	Update(pc uint64, taken bool)
	// Reset restores the state the constructor left.
	Reset()
}

// TwoBit is the paper's "simple 2-bit predictor": a single shared
// saturating counter, included for validation and consistency checking.
type TwoBit struct{ c sat2 }

// NewTwoBit returns a TwoBit predictor initialized weakly not-taken.
func NewTwoBit() *TwoBit { return &TwoBit{c: 1} }

// Name implements DirPredictor.
func (*TwoBit) Name() string { return "2bit" }

// Predict implements DirPredictor.
func (p *TwoBit) Predict(uint64) bool { return p.c.taken() }

// Update implements DirPredictor.
func (p *TwoBit) Update(_ uint64, taken bool) { p.c = p.c.update(taken) }

// Reset implements DirPredictor.
func (p *TwoBit) Reset() { p.c = 1 }

// BHT is a one-level branch history table: a PC-indexed table of 2-bit
// counters (2K entries in the paper's configuration).
type BHT struct {
	table []sat2
	mask  uint64
}

// NewBHT returns a BHT with entries counters (power of two).
func NewBHT(entries int) *BHT {
	return &BHT{table: make([]sat2, entries), mask: uint64(entries - 1)}
}

// Name implements DirPredictor.
func (*BHT) Name() string { return "BHT" }

func (p *BHT) idx(pc uint64) uint64 { return (pc >> 2) & p.mask }

// Predict implements DirPredictor.
func (p *BHT) Predict(pc uint64) bool { return p.table[p.idx(pc)].taken() }

// Update implements DirPredictor.
func (p *BHT) Update(pc uint64, taken bool) {
	i := p.idx(pc)
	p.table[i] = p.table[i].update(taken)
}

// Reset implements DirPredictor.
func (p *BHT) Reset() { clear(p.table) }

// Gshare XORs a global history register into the PC to index a table of
// 2-bit counters (2K entries, 5 history bits in the paper's setup).
type Gshare struct {
	table    []sat2
	mask     uint64
	history  uint64
	histMask uint64
}

// NewGshare returns a Gshare predictor with the given table size and
// history length.
func NewGshare(entries, historyBits int) *Gshare {
	return &Gshare{
		table:    make([]sat2, entries),
		mask:     uint64(entries - 1),
		histMask: (1 << historyBits) - 1,
	}
}

// Name implements DirPredictor.
func (*Gshare) Name() string { return "gshare" }

func (p *Gshare) idx(pc uint64) uint64 { return ((pc >> 2) ^ p.history) & p.mask }

// Predict implements DirPredictor.
func (p *Gshare) Predict(pc uint64) bool { return p.table[p.idx(pc)].taken() }

// Update implements DirPredictor.
func (p *Gshare) Update(pc uint64, taken bool) {
	i := p.idx(pc)
	p.table[i] = p.table[i].update(taken)
	bit := uint64(0)
	if taken {
		bit = 1
	}
	p.history = ((p.history << 1) | bit) & p.histMask
}

// Reset implements DirPredictor.
func (p *Gshare) Reset() {
	clear(p.table)
	p.history = 0
}

// GAp is the two-level per-address scheme of Yeh and Patt: a first-level
// table of per-branch history registers (2K entries) indexes a
// second-level pattern table of 2-bit counters (256 entries per the
// paper).
type GAp struct {
	histories []uint64
	hmask     uint64
	pattern   []sat2
	pmask     uint64
	histBits  int
}

// NewGAp returns a GAp predictor with firstEntries history registers of
// historyBits bits and a second-level pattern table of secondEntries
// counters.
func NewGAp(firstEntries, historyBits, secondEntries int) *GAp {
	return &GAp{
		histories: make([]uint64, firstEntries),
		hmask:     uint64(firstEntries - 1),
		pattern:   make([]sat2, secondEntries),
		pmask:     uint64(secondEntries - 1),
		histBits:  historyBits,
	}
}

// Name implements DirPredictor.
func (*GAp) Name() string { return "GAp" }

// Predict implements DirPredictor.
func (p *GAp) Predict(pc uint64) bool {
	h := p.histories[(pc>>2)&p.hmask]
	return p.pattern[h&p.pmask].taken()
}

// Update implements DirPredictor.
func (p *GAp) Update(pc uint64, taken bool) {
	hi := (pc >> 2) & p.hmask
	h := p.histories[hi]
	pi := h & p.pmask
	p.pattern[pi] = p.pattern[pi].update(taken)
	bit := uint64(0)
	if taken {
		bit = 1
	}
	p.histories[hi] = ((h << 1) | bit) & ((1 << p.histBits) - 1)
}

// Reset implements DirPredictor.
func (p *GAp) Reset() {
	clear(p.histories)
	clear(p.pattern)
}

// BTB is a direct-mapped branch target buffer.
type BTB struct {
	tags    []uint64
	targets []uint64
	valid   []bool
	mask    uint64
}

// NewBTB returns a BTB with entries slots.
func NewBTB(entries int) *BTB {
	return &BTB{
		tags:    make([]uint64, entries),
		targets: make([]uint64, entries),
		valid:   make([]bool, entries),
		mask:    uint64(entries - 1),
	}
}

// Lookup returns the predicted target for pc and whether the entry was
// present.
func (b *BTB) Lookup(pc uint64) (uint64, bool) {
	i := (pc >> 2) & b.mask
	if b.valid[i] && b.tags[i] == pc {
		return b.targets[i], true
	}
	return 0, false
}

// Update installs the resolved target for pc.
func (b *BTB) Update(pc, target uint64) {
	i := (pc >> 2) & b.mask
	b.tags[i], b.targets[i], b.valid[i] = pc, target, true
}

// Reset empties the buffer.
func (b *BTB) Reset() {
	clear(b.tags)
	clear(b.targets)
	clear(b.valid)
}
