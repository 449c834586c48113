package table

import "testing"

func benchTable(b *testing.B, kind Kind) {
	const n, sets = 100_000, 64
	tab := New(kind, n, sets, nil)
	row := make([]float64, sets)
	for i := range row {
		if i%3 == 0 {
			row[i] = float64(i)
		}
	}
	b.Run("store", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tab.StoreRow(int32(i%n), row)
		}
	})
	b.Run("get", func(b *testing.B) {
		var sink float64
		for i := 0; i < b.N; i++ {
			sink += tab.Get(int32(i%n), int32(i%sets))
		}
		_ = sink
	})
	b.Run("has", func(b *testing.B) {
		var hits int
		for i := 0; i < b.N; i++ {
			if tab.Has(int32(i % n)) {
				hits++
			}
		}
		_ = hits
	})
}

func BenchmarkDenseTable(b *testing.B)  { benchTable(b, Naive) }
func BenchmarkSparseTable(b *testing.B) { benchTable(b, Lazy) }
func BenchmarkHashTable(b *testing.B)   { benchTable(b, Hash) }
