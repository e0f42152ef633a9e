#include "textflag.h"

// One Barrett step per eight data bytes (see encTables.clmul). With S the
// 264-bit state and D the next chunk, V = (S >> 200) ^ D and
//
//	q  = V ^ hi64(V * mu_lo)
//	S' = (S mod x^200) * x^64  ^  (q * (g0 + g1 x^64 + ... + g4 x^256)) mod x^264
//
// The state lives in X0 = [s0, s1], X1 = [s2, s3], X2 = [s4, 0]. With
// Pj = q * gj (128 bits each), A2 = X0 ^ P1 and B3 = X1 ^ P3:
//
//	X0' = P0 ^ (A2 << 64)           = [lo0, s0 ^ hi0 ^ lo1]
//	X1' = (B3:A2 >> 64) ^ P2         = [s1 ^ hi1 ^ lo2, s2 ^ hi2 ^ lo3]
//	X2' = ((B3 >> 64) ^ P4) & 0xFF   = [(s3 ^ hi3 ^ lo4) & 0xFF, 0]
//
// Nothing moves between XMM and general registers inside the loop.

// func cpuid1ECX() (ecx uint32)
TEXT ·cpuid1ECX(SB), NOSPLIT, $0-4
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, ecx+0(FP)
	RET

// func clmulFeed264(k *[6]uint64, state *[5]uint64, data []byte)
TEXT ·clmulFeed264(SB), NOSPLIT, $0-40
	MOVQ k+0(FP), AX
	MOVQ state+8(FP), BX
	MOVQ data_base+16(FP), SI
	MOVQ data_len+24(FP), CX

	MOVOU 0(AX), X8   // [mu_lo, g0]
	MOVOU 16(AX), X9  // [g1, g2]
	MOVOU 32(AX), X10 // [g3, g4]
	MOVL  $0xFF, DX
	MOVQ  DX, X11     // [0xFF, 0]: the top word's 8 valid bits

	MOVOU 0(BX), X0
	MOVOU 16(BX), X1
	MOVQ  32(BX), X2

	SHRQ $3, CX
	JZ   done
	LEAQ -8(SI)(CX*8), SI // the highest chunk

loop:
	// V = [s3 >> 8 | s4 << 56, 0] ^ D
	MOVO    X2, X3
	PALIGNR $8, X1, X3
	PSRLDQ  $1, X3
	MOVQ    (SI), X4
	PXOR    X4, X3

	// q = V ^ hi64(V * mu_lo)
	MOVO      X3, X4
	PCLMULQDQ $0x00, X8, X4
	PSRLDQ    $8, X4
	PXOR      X3, X4

	// P0..P4 = q * g0..g4
	MOVO      X4, X5
	PCLMULQDQ $0x10, X8, X5
	MOVO      X4, X6
	PCLMULQDQ $0x00, X9, X6
	MOVO      X4, X7
	PCLMULQDQ $0x10, X9, X7
	MOVO      X4, X12
	PCLMULQDQ $0x00, X10, X12
	PCLMULQDQ $0x10, X10, X4

	PXOR X6, X0  // A2
	PXOR X12, X1 // B3

	MOVO   X1, X2
	PSRLDQ $8, X2
	PXOR   X4, X2
	PAND   X11, X2

	PALIGNR $8, X0, X1
	PXOR    X7, X1

	PSLLDQ $8, X0
	PXOR   X5, X0

	SUBQ $8, SI
	DECQ CX
	JNZ  loop

done:
	MOVOU X0, 0(BX)
	MOVOU X1, 16(BX)
	MOVQ  X2, 32(BX)
	RET
