package isa

// Runtime services invocable from generated code via OpCallRT. Arguments
// travel in the argument registers per ArgRegs conventions; integer
// results return in RRet, float results in FReg0.
const (
	// SvcNew allocates an instance of the class whose id is in RArg0.
	SvcNew = iota
	// SvcNewArray allocates an array: kind in RArg0, length in RArg1.
	SvcNewArray
	// SvcMonEnter locks the object in RArg0 (may block the thread).
	SvcMonEnter
	// SvcMonExit unlocks the object in RArg0.
	SvcMonExit
	// SvcPrintStr prints the char array in RArg0.
	SvcPrintStr
	// SvcPrintInt prints the integer in RArg0.
	SvcPrintInt
	// SvcPrintFloat prints the float in f0.
	SvcPrintFloat
	// SvcPrintChar prints the character in RArg0.
	SvcPrintChar
	// SvcSpawn starts a thread running RArg0's run() method; the new
	// thread id returns in RRet.
	SvcSpawn
	// SvcJoin waits for the thread id in RArg0.
	SvcJoin
	// SvcYield relinquishes the scheduler quantum.
	SvcYield
	// NumServices is the service count.
	NumServices
)

// NumArgRegs is the number of integer (and, separately, float) argument
// registers.
const NumArgRegs = 8

// ArgRegs assigns argument registers positionally: parameter i goes to
// the next free integer register (RArg0+k) or float register (FReg0+k)
// according to isFloat[i]. It appends one register per parameter to dst
// and returns the extended slice, or nil and false if the signature
// needs more registers than the ABI provides (callers treat such methods
// as uncompilable). A dst with spare capacity keeps the call free of
// allocation.
//
// The JIT's call-site code generator and the native CPU's trap decoder
// must agree on this mapping; both use this function.
func ArgRegs(dst []uint8, isFloat []bool) (regs []uint8, ok bool) {
	intN, fpN := 0, 0
	for _, f := range isFloat {
		if f {
			if fpN >= NumArgRegs {
				return nil, false
			}
			dst = append(dst, uint8(FReg0+fpN))
			fpN++
		} else {
			if intN >= NumArgRegs {
				return nil, false
			}
			dst = append(dst, uint8(RArg0+intN))
			intN++
		}
	}
	return dst, true
}
