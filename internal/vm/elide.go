package vm

import (
	"slices"

	"jrs/internal/analysis/ipa"
	"jrs/internal/bytecode"
)

// LinkElided links classes like Link, then applies lock elision (§5,
// Figure 11) before it returns the program, which is then as immutable
// and shareable as any other. An invokevirtual whose receiver is a
// thread-local allocation and whose unique target is synchronized is
// rebound (invokespecial) to an unsynchronized clone of the target, and
// monitorenter/monitorexit on thread-local objects becomes pop, so the
// monitor subsystem never sees the operation. Every rewrite keeps the
// instruction's width, so code layout, addresses and footprint are
// unchanged. IPA and Races are the facts the rewrite read, over the
// code as compiled; Ranges, built on first use, sees the code that
// runs. Iteration order is class list / method list / pc, so clone ids
// are deterministic.
func LinkElided(classes []*bytecode.Class) (*Program, error) {
	p, err := Link(classes)
	if err != nil {
		return nil, err
	}
	calls, monitors := elisions(p)
	p.LockElided = true
	p.Alias = map[int]int{}
	clones := map[*bytecode.Method]*bytecode.Method{}
	for _, c := range p.Classes {
		for _, m := range c.Methods {
			if monitors[m] {
				for pc, ins := range m.Code {
					if ins.Op == bytecode.MonitorEnter || ins.Op == bytecode.MonitorExit {
						m.Code[pc] = bytecode.Instr{Op: bytecode.Pop}
						p.ElidedMonitorOps++
					}
				}
			}
			for pc := range m.Code {
				target := calls[ipa.Site{Method: m.ID, PC: pc}]
				if target == nil {
					continue
				}
				clone := clones[target]
				if clone == nil {
					clone = p.unsyncClone(target)
					clones[target] = clone
				}
				m.Code[pc] = bytecode.Instr{
					Op: bytecode.InvokeSpecial,
					A:  clonePoolRef(&m.Class.Pool, clone),
				}
				p.ElidedSyncSites++
			}
		}
	}
	return p, nil
}

// elisions returns the call sites and methods lock elision may rewrite:
// IPA's, less those the static race analysis vetoes. An elision whose
// receiver allocation site participates in a reported race pair is
// withdrawn. Escape analysis already proves the receivers thread-local
// — so on a correct analysis pair this never vetoes — but the
// cross-check means a soundness bug in one analysis cannot silently
// remove a lock that real races depend on. The sets are new: the
// ipa.Result is never written.
func elisions(p *Program) (map[ipa.Site]*bytecode.Method, map[*bytecode.Method]bool) {
	res := p.IPA()
	calls := make(map[ipa.Site]*bytecode.Method, len(res.ElideCalls))
	monitors := make(map[*bytecode.Method]bool, len(res.ElideMonitors))
	if len(res.ElideCalls) == 0 && len(res.ElideMonitors) == 0 {
		return calls, monitors
	}
	racy := p.Races().RacySites()
	for site, target := range res.ElideCalls {
		if as, ok := res.ElideRecv[site]; !ok || !racy[as] {
			calls[site] = target
		}
	}
	for m := range res.ElideMonitors {
		if !slices.ContainsFunc(res.ElideMonitorSites[m], func(as ipa.Site) bool { return racy[as] }) {
			monitors[m] = true
		}
	}
	return calls, monitors
}

// unsyncClone appends an unsynchronized twin of the synchronized method
// m to p.Methods and records it in p.Alias. The clone shares m's body
// and layout (Code, Addr, PCOffsets, CodeBytes — so the rewrites apply
// to both, and footprint and addresses are unchanged) and differs only
// in its flags and its fresh dense id. It is reachable by id, for stub
// dispatch and compilation, but deliberately absent from
// Class.Methods: name lookup, vtables and per-class accounting never
// see it.
func (p *Program) unsyncClone(m *bytecode.Method) *bytecode.Method {
	clone := &bytecode.Method{
		Name:      m.Name + "$unsync",
		Sig:       m.Sig,
		Flags:     m.Flags &^ bytecode.FlagSynchronized,
		MaxLocals: m.MaxLocals,
		Code:      m.Code,
		Class:     m.Class,
		VIndex:    -1,
		ID:        len(p.Methods),
		Addr:      m.Addr,
		PCOffsets: m.PCOffsets,
		CodeBytes: m.CodeBytes,
	}
	p.Methods = append(p.Methods, clone)
	p.Alias[clone.ID] = m.ID
	return clone
}

// clonePoolRef returns a pool index whose Resolved is the clone,
// appending a pre-resolved entry on first use per pool. Pool.AddMethod
// cannot be used: it dedupes by (class, name, sig) against entries the
// loader resolved through the class's method tables, which the clone is
// deliberately absent from.
func clonePoolRef(p *bytecode.Pool, clone *bytecode.Method) int32 {
	for i := range p.Methods {
		if p.Methods[i].Resolved == clone {
			return int32(i)
		}
	}
	p.Methods = append(p.Methods, bytecode.MethodRef{
		Class:    clone.Class.Name,
		Name:     clone.Name,
		Sig:      clone.Sig.String(),
		Resolved: clone,
	})
	return int32(len(p.Methods) - 1)
}
