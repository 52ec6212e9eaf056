#include "textflag.h"

// func cpuHasAVX2() bool
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	// Leaf 7 must exist.
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JLT  no

	// Leaf 1, ECX: bit 27 OSXSAVE, bit 28 AVX.
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no

	// XCR0 bits 1 and 2: the OS saves XMM and YMM state.
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no

	// Leaf 7 subleaf 0, EBX bit 5: AVX2.
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $5, BX
	JCC  no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func stencilAVX2(o, c1, c2, p, q, r, s *float64, n int)
//
// o[k] = c1[k]*o[k] + c2[k]*((p[k]-q[k])-(r[k]-s[k])) for k in [0, n).
// The operations and their order are the Go loop's; the first source
// of each multiply and add is the operand the Go compiler puts first,
// so even NaN propagation matches.  No FMA: every product is rounded
// before the add, exactly as in the scalar code.
TEXT ·stencilAVX2(SB), NOSPLIT, $0-64
	MOVQ o+0(FP), DI
	MOVQ c1+8(FP), AX
	MOVQ c2+16(FP), BX
	MOVQ p+24(FP), CX
	MOVQ q+32(FP), DX
	MOVQ r+40(FP), SI
	MOVQ s+48(FP), R8
	MOVQ n+56(FP), R9
	XORQ R10, R10
	MOVQ R9, R11
	ANDQ $-4, R11
	JZ   tail

loop4:
	VMOVUPD (CX)(R10*8), Y0
	VSUBPD  (DX)(R10*8), Y0, Y0 // p - q
	VMOVUPD (SI)(R10*8), Y1
	VSUBPD  (R8)(R10*8), Y1, Y1 // r - s
	VSUBPD  Y1, Y0, Y0          // (p-q) - (r-s)
	VMULPD  (BX)(R10*8), Y0, Y0 // (...) * c2
	VMOVUPD (AX)(R10*8), Y2
	VMULPD  (DI)(R10*8), Y2, Y2 // c1 * o
	VADDPD  Y0, Y2, Y2          // c1*o + c2*(...)
	VMOVUPD Y2, (DI)(R10*8)
	ADDQ    $4, R10
	CMPQ    R10, R11
	JLT     loop4
	VZEROUPPER

tail:
	CMPQ  R10, R9
	JGE   done
	MOVSD (CX)(R10*8), X0
	SUBSD (DX)(R10*8), X0
	MOVSD (SI)(R10*8), X1
	SUBSD (R8)(R10*8), X1
	SUBSD X1, X0
	MULSD (BX)(R10*8), X0
	MOVSD (AX)(R10*8), X2
	MULSD (DI)(R10*8), X2
	ADDSD X0, X2
	MOVSD X2, (DI)(R10*8)
	INCQ  R10
	JMP   tail

done:
	RET
