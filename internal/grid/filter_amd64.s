//go:build amd64 && !purego

#include "textflag.h"

// The vector tier of the branchless filters (README.md, "Vector kernels").
// Each routine is the inner loop of its Go wrapper and nothing else: the
// same subtractions, in the same operand order, OR'd and sign-tested, with
// the write cursor advanced by the number of clear signs (filterRuns compares
// quanta first, and takes the sign test only where they tie). The
// wrappers' scalar loops are the reference; a routine reads only its run
// and writes only dst[0:len(seg)], which reserve has already made room for.
//
// A block is one opmask's worth of candidates. K1 holds the block's lanes:
// all of them, or the low len%width of the last block, so that loads,
// gathers and the store touch nothing past the run. Survivors are compressed
// to the bottom of a register and stored under K1: the cursor never exceeds
// the number of candidates already read, so the store stays inside the
// reserved slots. (The memory-destination VPCOMPRESSD would need no K1 on
// the store but is microcoded on AMD parts.)

// Register use of the point routine, filterXY: SI ids, CX candidates left,
// DX the coordinates, DI dst, AX the cursor; Z5 sign bits, Z6 [MinX MinY] and Z8
// [MaxX MaxY] in every qword — interleaved from four dword loads, because the
// caller stored r a float at a time and a qword load across two of those
// stores waits for both to leave the store buffer.
#define POINT_SETUP \
	MOVQ seg_base+0(FP), SI; \
	MOVQ seg_len+8(FP), CX; \
	MOVQ dst_base+64(FP), DI; \
	MOVL $0x80000000, R11; \
	VPBROADCASTD R11, Z5; \
	VBROADCASTSS r_MinX+48(FP), Z6; \
	VBROADCASTSS r_MinY+52(FP), Z7; \
	VPUNPCKLDQ Z7, Z6, Z6; \
	VBROADCASTSS r_MaxX+56(FP), Z8; \
	VBROADCASTSS r_MaxY+60(FP), Z7; \
	VPUNPCKLDQ Z7, Z8, Z8; \
	XORL AX, AX; \
	MOVL $0xFF, R9; \
	KMOVW R9, K1

// TAIL_MASK leaves the low CX lanes of a block in K1.
#define TAIL_MASK \
	MOVL $1, R9; \
	SHLL CX, R9; \
	DECL R9; \
	KMOVW R9, K1

// POINT_TEST takes eight points in Z1 as [x y] qwords, their IDs in Y0:
// p - min and max - p put the scalar loop's four differences in each qword's
// two dwords, a point passes when neither dword of the OR has its sign set,
// and the survivors' IDs land at dst[AX:].
#define POINT_TEST \
	VSUBPS Z6, Z1, Z2; \
	VSUBPS Z1, Z8, Z3; \
	VPORD Z3, Z2, Z2; \
	VPTESTNMQ Z5, Z2, K1, K2; \
	VPCOMPRESSD.Z Y0, K2, Y4; \
	VMOVDQU32 Y4, K1, (DI)(AX*4); \
	KMOVW K2, R9; \
	POPCNTL R9, R9; \
	ADDQ R9, AX; \
	ADDQ $32, SI

// func filterXY(seg []uint32, xy []float32, r geom.Rect, dst []uint32) int
//
// appendFilterXY's loop, eight candidates a block: one 64-byte load of
// the run's own coordinate stream, and the point test.
TEXT ·filterXY(SB), NOSPLIT, $0-96
	POINT_SETUP
	MOVQ xy_base+24(FP), DX
	TESTQ CX, CX
	JLE  done
loop:
	CMPQ CX, $8
	JGE  block
	TAIL_MASK
block:
	VMOVDQU32.Z (SI), K1, Y0
	VMOVDQU64.Z (DX), K1, Z1
	POINT_TEST
	ADDQ $64, DX
	SUBQ $8, CX
	JG   loop
done:
	VZEROUPPER
	MOVQ AX, ret+88(FP)
	RET

// The dword lanes of two registers of eight slots each that hold the
// sixteen slots' IDs (even) and quanta (odd): VPERMI2D's indices.
DATA slotIDs<>+0x00(SB)/8, $0x0000000200000000
DATA slotIDs<>+0x08(SB)/8, $0x0000000600000004
DATA slotIDs<>+0x10(SB)/8, $0x0000000a00000008
DATA slotIDs<>+0x18(SB)/8, $0x0000000e0000000c
DATA slotIDs<>+0x20(SB)/8, $0x0000001200000010
DATA slotIDs<>+0x28(SB)/8, $0x0000001600000014
DATA slotIDs<>+0x30(SB)/8, $0x0000001a00000018
DATA slotIDs<>+0x38(SB)/8, $0x0000001e0000001c
GLOBL slotIDs<>(SB), RODATA|NOPTR, $64

// func filterRuns(slots []csrSlot, pts []geom.Point, w quantWindow, r geom.Rect, runs []csrRun, dst []uint32) int
//
// The CSR grid's one routine: every run of runs, in order, into dst from
// dst[0] on — filterQLoop over slots [lo, in0), their IDs copied out of
// [in0, in1), filterQLoop over [in1, hi) — with one entry, one broadcast
// of the window and one VZEROUPPER for them all (appendRunList; and
// appendFilterQ and appendIDs, one run each). The cursor runs on across
// runs and stretches, so it never exceeds the slots already read, and dst
// has room for every slot of every run. Returns how many IDs it wrote, or
// -1 without finishing when a tied slot's ID may not be gathered: at or
// past len(pts), or past 1<<31 (the gather sign-extends its indices).
//
// A filtered stretch goes sixteen slots a block: two loads of eight slots,
// whose IDs and quanta two permutes gather into a register each. A slot's
// quanta v = x | y<<16 are compared as a dword, in y against w's y quanta
// shifted up and in x, shifted up itself (VPSLLD), against w's x quanta
// likewise. Two chains of four compares leave in K2 the slots inside w's
// quanta, bounds included, and in K3 those strictly inside, the hits. A
// block where the two differ holds ties (K4), and only there are points
// read: the tied lanes' points are gathered, eight at a time, and those
// that pass r's sign test join the hits. A copied stretch goes eight slots
// a block, each slot's low dword narrowed out of the qword by the store
// (VPMOVQD) under K1.
//
// Register use: R13 slots, R14 the run, DX the runs left, R8 which filter
// of the run is running (0 the left, 1 the right), SI the stretch, CX its
// slots left, BX pts, DI dst, AX the cursor; Z3 the block's IDs; Z16
// x0<<16, Z17 x1<<16, Z18 y0<<16, Z19 y0<<16|0xffff, Z20 y1<<16, Z21
// y1<<16|0xffff, Z26 the ID indices, Z27 the quanta's; for ties Z22 [MinX
// MinY] and Z23 [MaxX MaxY] in every qword, Z24 the sign bits, Z25 the
// gather bound, and R12 set once they are loaded.
TEXT ·filterRuns(SB), NOSPLIT, $0-128
	MOVQ slots_base+0(FP), R13
	MOVQ runs_base+72(FP), R14
	MOVQ runs_len+80(FP), DX
	MOVQ dst_base+96(FP), DI
	MOVL w_lo+48(FP), R8
	MOVL w_hi+52(FP), R9
	MOVL R8, R10
	SHLL $16, R10
	VPBROADCASTD R10, Z16
	MOVL R9, R10
	SHLL $16, R10
	VPBROADCASTD R10, Z17
	ANDL $0xffff0000, R8
	VPBROADCASTD R8, Z18
	ORL  $0xffff, R8
	VPBROADCASTD R8, Z19
	ANDL $0xffff0000, R9
	VPBROADCASTD R9, Z20
	ORL  $0xffff, R9
	VPBROADCASTD R9, Z21
	VMOVDQU64 slotIDs<>(SB), Z26
	VPTERNLOGD $0xff, Z27, Z27, Z27
	VPSUBD Z27, Z26, Z27 // each index plus one: the quanta
	XORL AX, AX
	XORL R12, R12 // the tie constants are not loaded yet
	TESTQ DX, DX
	JLE  done
run:
	MOVL 0(R14), R9 // lo
	MOVL 4(R14), CX // in0
	XORL R8, R8
filter:
	SUBQ R9, CX
	LEAQ (R13)(R9*8), SI
	MOVL $0xffff, R9
	KMOVW R9, K1
	TESTQ CX, CX
	JLE  filtered
	PCALIGN $32
loop:
	CMPQ CX, $16
	JGE  block
	TAIL_MASK
block:
	KSHIFTRW $8, K1, K2
	VMOVDQU64.Z (SI), K1, Z0
	VMOVDQU64.Z 64(SI), K2, Z1
	VMOVDQA64 Z26, Z3
	VPERMI2D Z1, Z0, Z3 // the IDs
	VMOVDQA64 Z27, Z2
	VPERMI2D Z1, Z0, Z2 // the quanta
	VPSLLD $16, Z2, Z1
	VPCMPUD $5, Z16, Z1, K1, K2 // x >= x0
	VPCMPUD $2, Z17, Z1, K2, K2 // x <= x1
	VPCMPUD $5, Z18, Z2, K2, K2 // y >= y0
	VPCMPUD $2, Z21, Z2, K2, K2 // y <= y1
	VPCMPUD $6, Z16, Z1, K1, K3 // x > x0
	VPCMPUD $1, Z17, Z1, K3, K3 // x < x1
	VPCMPUD $6, Z19, Z2, K3, K3 // y > y0
	VPCMPUD $1, Z20, Z2, K3, K3 // y < y1
	KXORW K3, K2, K4
	KORTESTW K4, K4
	JNZ  tie
emit:
	VPCOMPRESSD.Z Z3, K3, Z4
	VMOVDQU32 Z4, K1, (DI)(AX*4)
	KMOVW K3, R9
	POPCNTL R9, R9
	ADDQ R9, AX
	ADDQ $128, SI
	SUBQ $16, CX
	JG   loop
filtered:
	TESTQ R8, R8
	JNZ  next
	MOVL 4(R14), R9 // in0
	MOVL 8(R14), CX // in1
	SUBQ R9, CX
	JLE  copied
	LEAQ (R13)(R9*8), SI
	MOVL $0xff, R9
	KMOVW R9, K1
copy:
	CMPQ CX, $8
	JGE  whole
	TAIL_MASK
whole:
	VMOVDQU64.Z (SI), K1, Z0
	VPMOVQD Z0, K1, (DI)(AX*4)
	ADDQ $64, SI
	ADDQ $8, AX
	SUBQ $8, CX
	JG   copy
	ADDQ CX, AX // the tail block counted 8
copied:
	MOVL 8(R14), R9  // in1
	MOVL 12(R14), CX // hi
	MOVL $1, R8
	JMP  filter
next:
	ADDQ $16, R14
	DECQ DX
	JNZ  run
done:
	VZEROUPPER
	MOVQ AX, ret+120(FP)
	RET
bad:
	MOVQ $-1, AX
	JMP  done
tie:
	TESTQ R12, R12
	JNZ  tied
	MOVQ pts_base+24(FP), BX
	MOVQ pts_len+32(FP), R10
	MOVL $0x80000000, R11
	CMPQ R10, R11
	CMOVQHI R11, R10
	VPBROADCASTD R10, Z25
	VPBROADCASTD R11, Z24
	VBROADCASTSS r_MinX+56(FP), Z22
	VBROADCASTSS r_MinY+60(FP), Z2
	VPUNPCKLDQ Z2, Z22, Z22
	VBROADCASTSS r_MaxX+64(FP), Z23
	VBROADCASTSS r_MaxY+68(FP), Z2
	VPUNPCKLDQ Z2, Z23, Z23
	MOVL $1, R12
tied:
	VPCMPUD $5, Z25, Z3, K4, K2 // a tied ID >= the bound
	KORTESTW K2, K2
	JNZ  bad
	KMOVW K4, K5
	VPXORQ Z1, Z1, Z1
	VPGATHERDQ (BX)(Y3*8), K5, Z1
	VSUBPS Z22, Z1, Z2
	VSUBPS Z1, Z23, Z1
	VPORD Z1, Z2, Z2
	VPTESTNMQ Z24, Z2, K4, K5 // the low eight tied lanes that pass r
	KORW K5, K3, K3
	KSHIFTRW $8, K4, K6
	KORTESTW K6, K6
	JZ   emit
	VEXTRACTI32X8 $1, Z3, Y0
	KMOVW K6, K5
	VPXORQ Z1, Z1, Z1
	VPGATHERDQ (BX)(Y0*8), K5, Z1
	VSUBPS Z22, Z1, Z2
	VSUBPS Z1, Z23, Z1
	VPORD Z1, Z2, Z2
	VPTESTNMQ Z24, Z2, K6, K5 // the high eight
	KSHIFTLW $8, K5, K5
	KORW K5, K3, K3
	JMP  emit

// func filterPlanes1(seg, dst []uint32, rects []geom.Rect, p0 []uint16, b0 edgeBound) int
// func filterPlanes2(seg, dst []uint32, rects []geom.Rect, p0 []uint16, b0 edgeBound, p1 []uint16, b1 edgeBound) int
// func filterPlanes4(seg, dst []uint32, rects []geom.Rect, p0 []uint16, b0 edgeBound, p1 []uint16, b1 edgeBound, p2 []uint16, b2 edgeBound, p3 []uint16, b3 edgeBound) int
//
// The loops of appendMasked1 / appendMasked2 / appendMasked, sixteen
// candidates a block: the quanta of the n planes, widened to dwords
// (VPMOVZXWD), less their bounds, and the least of those differences
// (VPMINSD) compared with 0: above it on every plane is a hit, below it on
// one a miss, and 0 a tie. The first pass takes the hits alone and keeps,
// lane by lane, the unsigned minimum of every block's least difference,
// which is 0 where a candidate tied (a miss's is negative, so unsigned
// huge). A run without ties ends there. A run with one is passed again,
// block by block, and a block with ties (K4) reads the base table: on each
// plane the tied candidates' edges are gathered, put in plane form (a
// min's sign bit flipped, as edgeOf negates it), and the bound subtracted;
// the tied candidates whose n differences all have a clear sign join the
// hits, as decideRun decides them. Returns how many passed, or -1 without
// finishing when a tied candidate's ID may not be gathered through: at or
// past len(rects), or past 1<<29 (the gather's dword index, id*4 plus the
// edge, must not reach the sign bit).
//
// The three share planes<>: each one's arguments are a prefix of
// filterPlanes4's (a plane's slice and its bound take 40 bytes wherever
// they sit), so the body reads the n planes it is told of (R12) at
// filterPlanes4's offsets and stores its result through R15.
//
// The compares into a mask, the widening loads and the compress share one
// port, so a plane costs a VPSUBD and a VPMINSD beside its load, and a
// block of the first pass one compare into a mask whatever n is.
//
// Register use: SI seg, DI dst, CX candidates left, AX the cursor, R13 the
// block's first candidate, R12 n, R15 the result's slot, R8 R10 R11 BX the
// planes, Z16-Z19 their quantum bounds, Z15 zero, Z14 the first pass's
// minima; for the second DX rects, Z24 the sign bits, Z25 the gather
// bound, Z5 the tied rects' first dword indices and Z6 the OR of the
// differences.

// PLANES_LEAST leaves in Z1 the least of the block's n plane differences;
// pass names its labels.
#define PLANES_LEAST(pass) \
	VPMOVZXWD.Z (R8)(R13*2), K1, Z1; \
	VPSUBD Z16, Z1, Z1; \
	CMPQ R12, $1; \
	JE   pass; \
	VPMOVZXWD.Z (R10)(R13*2), K1, Z2; \
	VPSUBD Z17, Z2, Z2; \
	VPMINSD Z2, Z1, Z1; \
	CMPQ R12, $2; \
	JE   pass; \
	VPMOVZXWD.Z (R11)(R13*2), K1, Z2; \
	VPSUBD Z18, Z2, Z2; \
	VPMOVZXWD.Z (BX)(R13*2), K1, Z3; \
	VPSUBD Z19, Z3, Z3; \
	VPMINSD Z3, Z2, Z2; \
	VPMINSD Z2, Z1, Z1

// EMIT_HITS stores the IDs in Z0 of the hits in K3 at dst[AX:], and moves
// on to the next block.
#define EMIT_HITS \
	VPCOMPRESSD.Z Z0, K3, Z4; \
	VMOVDQU32 Z4, K1, (DI)(AX*4); \
	KMOVW K3, R9; \
	POPCNTL R9, R9; \
	ADDQ R9, AX; \
	ADDQ $16, R13; \
	SUBQ $16, CX

// TIE_PLANE ORs into Z6 the differences of the tied candidates' edge e
// (plane form) less the bound b.
#define TIE_PLANE(e, b) \
	MOVL e, R9; \
	LEAQ (DX)(R9*4), R14; \
	KMOVW K4, K5; \
	VPGATHERDD (R14)(Z5*4), K5, Z7; \
	SHRL $1, R9; \
	XORL $1, R9; \
	SHLL $31, R9; \
	VPBROADCASTD R9, Z8; \
	VPXORD Z8, Z7, Z7; \
	VSUBPS.BCST b, Z7, Z7; \
	VPORD Z7, Z6, Z6

TEXT ·filterPlanes1(SB), NOSPLIT, $0-120
	MOVQ $1, R12
	LEAQ ret+112(FP), R15
	JMP  planes<>(SB)

TEXT ·filterPlanes2(SB), NOSPLIT, $0-160
	MOVQ $2, R12
	LEAQ ret+152(FP), R15
	JMP  planes<>(SB)

TEXT ·filterPlanes4(SB), NOSPLIT, $0-240
	MOVQ $4, R12
	LEAQ ret+232(FP), R15
	JMP  planes<>(SB)

TEXT planes<>(SB), NOSPLIT, $0
	MOVQ seg_base+0(FP), SI
	MOVQ seg_len+8(FP), CX
	MOVQ dst_base+24(FP), DI
	MOVQ p0_base+72(FP), R8
	VBROADCASTSS b0_q+96(FP), Z16
	CMPQ R12, $1
	JE   loaded
	MOVQ p1_base+112(FP), R10
	VBROADCASTSS b1_q+136(FP), Z17
	CMPQ R12, $2
	JE   loaded
	MOVQ p2_base+152(FP), R11
	VBROADCASTSS b2_q+176(FP), Z18
	MOVQ p3_base+192(FP), BX
	VBROADCASTSS b3_q+216(FP), Z19
loaded:
	VPXORD Z15, Z15, Z15
	VPTERNLOGD $0xff, Z14, Z14, Z14
	XORL AX, AX
	XORL R13, R13
	MOVL $0xFFFF, R9
	KMOVW R9, K1
	TESTQ CX, CX
	JLE  done
loop:
	CMPQ CX, $16
	JGE  block
	TAIL_MASK
block:
	VMOVDQU32.Z (SI)(R13*4), K1, Z0
	PLANES_LEAST(least)
least:
	VPCMPD $6, Z15, Z1, K1, K3 // above on every plane
	VPMINUD Z1, Z14, K1, Z14
	EMIT_HITS
	JG   loop
	VPTESTNMD Z14, Z14, K4
	KORTESTW K4, K4
	JNZ  again
done:
	VZEROUPPER
	MOVQ AX, (R15)
	RET
bad:
	MOVQ $-1, AX
	JMP  done
again:
	MOVQ seg_len+8(FP), CX
	MOVQ rects_base+48(FP), DX
	MOVQ rects_len+56(FP), R9
	MOVL $0x20000000, R14
	CMPQ R9, R14
	CMOVQHI R14, R9
	VPBROADCASTD R9, Z25
	MOVL $0x80000000, R9
	VPBROADCASTD R9, Z24
	XORL AX, AX
	XORL R13, R13
	MOVL $0xFFFF, R9
	KMOVW R9, K1
loop2:
	CMPQ CX, $16
	JGE  block2
	TAIL_MASK
block2:
	VMOVDQU32.Z (SI)(R13*4), K1, Z0
	PLANES_LEAST(least2)
least2:
	VPCMPD $6, Z15, Z1, K1, K3 // above on every plane
	VPTESTNMD Z1, Z1, K1, K4   // on one, and below on none
	KORTESTW K4, K4
	JNZ  tie
emit2:
	EMIT_HITS
	JG   loop2
	JMP  done
tie:
	VPCMPUD $5, Z25, Z0, K4, K5 // a tied ID >= the bound
	KORTESTW K5, K5
	JNZ  bad
	VPSLLD $2, Z0, Z5
	VPXORD Z6, Z6, Z6
	TIE_PLANE(b0_e+104(FP), b0_b+100(FP))
	CMPQ R12, $1
	JE   decided
	TIE_PLANE(b1_e+144(FP), b1_b+140(FP))
	CMPQ R12, $2
	JE   decided
	TIE_PLANE(b2_e+184(FP), b2_b+180(FP))
	TIE_PLANE(b3_e+224(FP), b3_b+220(FP))
decided:
	VPTESTNMD Z24, Z6, K4, K5 // the tied candidates that pass
	KORW K5, K3, K3
	JMP  emit2

