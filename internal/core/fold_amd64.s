//go:build amd64 && !purego

#include "textflag.h"

// func foldIDs(h uint64, q uint32, ids []uint32) uint64
//
// mixIDs' loop, eight pairs a block: MixPair's finalizer on the eight
// qwords q<<32 | id, summed lane-wise into Z0 and reduced once at the end.
// The finalizer's first xor-shift needs no shift here: v>>33 of q<<32 | id
// is q>>1, so v ^ v>>33 is id ^ (q<<32 | q>>1), one VPXORQ against Z6.
// Z7 and Z8 hold the two multipliers.
//
// K1 holds the block's lanes: all eight, or the low len%8 of the last
// block, so the load reads nothing past len(ids) (masked lanes are not
// read) and the add takes only live lanes. Without the vector tier the
// routine is a tail jump to mixIDs, which takes the same arguments in the
// same frame.
TEXT ·foldIDs(SB), NOSPLIT, $0-48
	CMPB ·vectorFold(SB), $0
	JEQ  scalar
	MOVQ h+0(FP), AX
	MOVQ ids_base+16(FP), SI
	MOVQ ids_len+24(FP), CX
	TESTQ CX, CX
	JLE  empty
	MOVL q+8(FP), DX
	MOVL DX, R10
	SHRL $1, R10
	SHLQ $32, DX
	ORQ  R10, DX
	VPBROADCASTQ DX, Z6
	MOVQ $0xff51afd7ed558ccd, DX
	VPBROADCASTQ DX, Z7
	MOVQ $0xc4ceb9fe1a85ec53, DX
	VPBROADCASTQ DX, Z8
	VPXORQ Z0, Z0, Z0
	MOVL $0xFF, R9
	KMOVW R9, K1
loop:
	CMPQ CX, $8
	JGE  block
	MOVL $1, R9
	SHLL CX, R9
	DECL R9
	KMOVW R9, K1
block:
	VPMOVZXDQ.Z (SI), K1, Z1
	VPXORQ Z6, Z1, Z1
	VPMULLQ Z7, Z1, Z1
	VPSRLQ $33, Z1, Z2
	VPXORQ Z2, Z1, Z1
	VPMULLQ Z8, Z1, Z1
	VPSRLQ $33, Z1, Z2
	VPXORQ Z2, Z1, Z1
	VPADDQ Z1, Z0, K1, Z0
	ADDQ $32, SI
	SUBQ $8, CX
	JG   loop
	VEXTRACTI64X4 $1, Z0, Y1
	VPADDQ Y1, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPADDQ X1, X0, X0
	VPSHUFD $0x4E, X0, X1
	VPADDQ X1, X0, X0
	VMOVQ X0, DX
	ADDQ DX, AX
	VZEROUPPER
empty:
	MOVQ AX, ret+40(FP)
	RET
scalar:
	JMP ·mixIDs(SB)
