package webscript

import "testing"

func BenchmarkParse(b *testing.B) {
	b.ReportAllocs()
	b.SetBytes(int64(len(sampleScript)))
	for i := 0; i < b.N; i++ {
		if _, err := Parse(sampleScript); err != nil {
			b.Fatal(err)
		}
	}
}

// nullHost discards all effects, isolating executor overhead.
type nullHost struct{}

func (nullHost) Invoke(string, string, int) error { return nil }
func (nullHost) SetProperty(string, string) error { return nil }
func (nullHost) InvokeRef(int, int) error         { return nil }
func (nullHost) SetRef(int) error                 { return nil }
func (nullHost) Navigate(string)                  {}

// BenchmarkExecute contrasts compiled execution (ExecuteOps over interned
// ops, the browser's path) with the reference AST interpreter on the sample
// script's immediate block.
func BenchmarkExecute(b *testing.B) {
	s, err := Parse(sampleScript)
	if err != nil {
		b.Fatal(err)
	}
	c := Compile(s, newTestInterner())
	b.Run("compiled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := ExecuteOps(c.Immediate, nullHost{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("interpreted", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := execute(s.Immediate, nullHost{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkFormat(b *testing.B) {
	s, err := Parse(sampleScript)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Format(s)
	}
}
