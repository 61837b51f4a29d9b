//go:build !amd64 || purego

package cpuid

// AVX512 is false on this platform, or under -tags purego: every kernel
// runs its Go loop, and the compiler drops the vector calls.
const AVX512 = false
