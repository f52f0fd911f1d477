package trace

import "testing"

// benchStream builds a representative instruction mix: mostly ALU and
// memory traffic with a sprinkling of control transfers, as the
// simulated engines emit it.
func benchStream(n int) []Inst {
	out := make([]Inst, n)
	for i := range out {
		in := Inst{PC: uint64(i) * 4, Phase: PhaseExec}
		switch i % 8 {
		case 0:
			in.Class = Load
			in.Addr = uint64(i) * 8
		case 1:
			in.Class = Store
			in.Addr = uint64(i) * 8
		case 7:
			in.Class = Branch
			in.Taken = i%16 == 7
			in.Target = uint64(i) * 2
		default:
			in.Class = ALU
		}
		out[i] = in
	}
	return out
}

// BenchmarkTraceTransportEmit delivers the stream one instruction per
// interface call into a Counter.
func BenchmarkTraceTransportEmit(b *testing.B) {
	stream := benchStream(4096)
	var c Counter
	var s Sink = &c
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range stream {
			s.Emit(stream[j])
		}
	}
}

// BenchmarkTraceTransportEmitBatch delivers the same stream through one
// EmitBatch dispatch per buffer.
func BenchmarkTraceTransportEmitBatch(b *testing.B) {
	stream := benchStream(4096)
	var c Counter
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.EmitBatch(stream)
	}
}

// BenchmarkTraceTransportBatcher measures the producer side as the
// engine wires it: the inlinable Add fast path filling
// DefaultBatchSize buffers that flush into a clock + sink fan-out.
func BenchmarkTraceTransportBatcher(b *testing.B) {
	stream := benchStream(4096)
	var clock, c Counter
	bt := NewBatcher(Tee(&clock, &c), DefaultBatchSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range stream {
			bt.Add(stream[j])
		}
	}
	bt.Flush()
}

// BenchmarkTraceTransportTeeEmit fans each instruction out to four
// counters through the per-instruction interface.
func BenchmarkTraceTransportTeeEmit(b *testing.B) {
	stream := benchStream(4096)
	var c [4]Counter
	s := Tee(&c[0], &c[1], &c[2], &c[3])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range stream {
			s.Emit(stream[j])
		}
	}
}

// BenchmarkTraceTransportTeeEmitBatch fans whole buffers out to four
// counters: one dispatch per member per batch instead of per
// instruction.
func BenchmarkTraceTransportTeeEmitBatch(b *testing.B) {
	stream := benchStream(4096)
	var c [4]Counter
	s := Tee(&c[0], &c[1], &c[2], &c[3])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.EmitBatch(stream)
	}
}
