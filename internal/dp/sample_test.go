package dp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/exact"
	"repro/internal/tmpl"
)

// TestSamplingUniformity checks that SampleEmbeddings draws colorful
// mappings approximately uniformly: over many samples, each colorful
// mapping's empirical frequency should be near 1/total.
func TestSamplingUniformity(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	g := randomGraph(rng, 10, 24)
	tr := tmpl.Path(3)
	cfg := DefaultConfig()
	cfg.KeepTables = true
	// Find a coloring with a reasonably rich sample space.
	var e *Engine
	for seed := int64(1); seed < 20; seed++ {
		cfg.Seed = seed
		var err error
		e, err = New(g, tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(1)
		if err != nil {
			t.Fatal(err)
		}
		if res.PerIteration[0] > 0 {
			break
		}
	}
	colors := e.kept.colors

	// Enumerate the colorful mappings under this exact coloring. A
	// sampled mapping fixes a root assignment, so the sample space is
	// rooted mappings; for P3 rooted at an end (one-at-a-time partitions
	// root at a leaf), every mapping appears once.
	want := map[string]bool{}
	exact.Enumerate(g, tr, func(m []int32) bool {
		seen := map[int8]bool{}
		ok := true
		for _, v := range m {
			if seen[colors[v]] {
				ok = false
				break
			}
			seen[colors[v]] = true
		}
		if ok {
			want[fmt.Sprint(m)] = true
		}
		return true
	})
	if len(want) < 4 {
		t.Skip("too few colorful mappings under this coloring")
	}

	const samples = 6000
	freq := map[string]int{}
	embs, err := e.SampleEmbeddings(rng, samples)
	if err != nil {
		t.Fatal(err)
	}
	for _, emb := range embs {
		key := fmt.Sprint(emb.Mapping)
		if !want[key] {
			t.Fatalf("sampled mapping %s is not a colorful mapping", key)
		}
		freq[key]++
	}
	// Every colorful mapping should appear, at a rate within 4 sigma of
	// uniform.
	p := 1.0 / float64(len(want))
	sigma := math.Sqrt(float64(samples) * p * (1 - p))
	expect := float64(samples) * p
	for key := range want {
		got := float64(freq[key])
		if math.Abs(got-expect) > 4*sigma+1 {
			t.Errorf("mapping %s sampled %d times, expected %.1f±%.1f", key, freq[key], expect, sigma)
		}
	}
}

// TestSampleAfterEveryTableKind ensures sampling works with each layout.
func TestSampleAfterEveryTableKind(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomGraph(rng, 25, 70)
	tr := tmpl.Spider(2, 1, 1)
	for _, kind := range []struct {
		name string
		set  func(*Config)
	}{
		{"lazy", func(c *Config) {}},
		{"naive", func(c *Config) { c.TableKind = 0 }},
	} {
		cfg := DefaultConfig()
		kind.set(&cfg)
		cfg.KeepTables = true
		cfg.Seed = 6
		e, err := New(g, tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(1); err != nil {
			t.Fatal(err)
		}
		embs, err := e.SampleEmbeddings(rng, 5)
		if err != nil {
			t.Skipf("%s: no colorful embeddings this coloring", kind.name)
		}
		for _, emb := range embs {
			if err := e.VerifyEmbedding(emb); err != nil {
				t.Fatalf("%s: %v", kind.name, err)
			}
		}
	}
}
