//go:build amd64 && !purego

package cpuid

// AVX512 is resolved once, at init, from CPUID and XGETBV. Every other
// platform, and -tags purego, has it a false constant (cpuid_generic.go).
var AVX512 = hasAVX512()

func hasAVX512() bool
