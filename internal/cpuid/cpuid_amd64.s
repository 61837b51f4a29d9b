//go:build amd64 && !purego

#include "textflag.h"

// func hasAVX512() bool
//
// AVX512F, AVX512VL (the point filters work on eight dwords), AVX512DQ (the
// digest fold's VPMULLQ), POPCNT, and an OS that saves the SSE, AVX, opmask
// and both ZMM halves' state. Every part with VL has DQ, so the one tier
// costs no host a kernel.
TEXT ·hasAVX512(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JB   no
	MOVL $1, AX
	CPUID
	ANDL $(1<<27 | 1<<23), CX // OSXSAVE, POPCNT
	CMPL CX, $(1<<27 | 1<<23)
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $0xE6, AX
	CMPL AX, $0xE6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $(1<<31 | 1<<17 | 1<<16), BX // AVX512VL, AVX512DQ, AVX512F
	CMPL BX, $(1<<31 | 1<<17 | 1<<16)
	JNE  no
	MOVB $1, ret+0(FP)
no:
	RET
