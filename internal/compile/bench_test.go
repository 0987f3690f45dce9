package compile_test

import (
	. "repro/internal/compile"
	"testing"

	"repro/internal/core"
	"repro/internal/mdes"
	"repro/internal/workloads"
)

// BenchmarkCompileRawdaudio measures the software-compiler half: matching,
// replacement, scheduling and register allocation for one application
// against a 15-adder MDES.
func BenchmarkCompileRawdaudio(b *testing.B) {
	bench, err := workloads.ByName("rawdaudio")
	if err != nil {
		b.Fatal(err)
	}
	m, err := core.GenerateMDES(bench.Program, core.Config{Budget: 15})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Compile(bench.Program, m, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileBlowfish compiles blowfish against its own 15-adder
// MDES. Its 400-op feistel16 block takes about 90 replacements per
// compile, so this is where the cost of one replacement shows.
func BenchmarkCompileBlowfish(b *testing.B) {
	bench, err := workloads.ByName("blowfish")
	if err != nil {
		b.Fatal(err)
	}
	m, err := core.GenerateMDES(bench.Program, core.Config{Budget: 15})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Compile(bench.Program, m, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileWithGeneralizations adds subsumed-variant and
// opcode-class matching, the compiler's most expensive mode.
func BenchmarkCompileWithGeneralizations(b *testing.B) {
	bench, err := workloads.ByName("rijndael")
	if err != nil {
		b.Fatal(err)
	}
	src, err := workloads.ByName("blowfish")
	if err != nil {
		b.Fatal(err)
	}
	m, err := core.GenerateMDES(src.Program, core.Config{Budget: 15})
	if err != nil {
		b.Fatal(err)
	}
	var keep *mdes.MDES = m
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Compile(bench.Program, keep, Options{UseVariants: true, UseOpcodeClasses: true}); err != nil {
			b.Fatal(err)
		}
	}
}
