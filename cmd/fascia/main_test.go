package main

import (
	"os"
	"path/filepath"
	"testing"

	fascia "repro"
)

func TestParseTemplate(t *testing.T) {
	cases := []struct {
		spec string
		k    int
		ok   bool
	}{
		{"U7-2", 7, true},
		{"path:5", 5, true},
		{"star:4", 4, true},
		{"0-1 1-2 1-3", 4, true},
		{"triangle", 3, true},
		{"c4", 4, true},
		{"C4", 4, true},
		{"cycle:6", 6, true},
		{"k4", 4, true},
		{"clique:4", 4, true},
		{"paw", 4, true},
		{"tailed-triangle", 4, true},
		{"diamond", 4, true},
		{"0-1 1-2 2-0", 3, true}, // cyclic edge list
		{"path:x", 0, false},
		{"star:1", 0, false},
		{"U99-1", 0, false},
		{"cycle:2", 0, false},
		{"0-1 5-6", 0, false}, // disconnected
	}
	for _, c := range cases {
		tpl, err := parseTemplate(c.spec)
		if (err == nil) != c.ok {
			t.Errorf("parseTemplate(%q): err=%v, want ok=%v", c.spec, err, c.ok)
			continue
		}
		if err == nil && tpl.K() != c.k {
			t.Errorf("parseTemplate(%q): k=%d, want %d", c.spec, tpl.K(), c.k)
		}
	}
}

func TestLoadGraphModes(t *testing.T) {
	if _, err := loadGraph("", "", 1, 1, 0); err == nil {
		t.Error("no source accepted")
	}
	if _, err := loadGraph("x.txt", "enron", 1, 1, 0); err == nil {
		t.Error("both sources accepted")
	}
	if _, err := loadGraph("", "bogus", 1, 1, 0); err == nil {
		t.Error("bad network accepted")
	}
	g, err := loadGraph("", "circuit", 1.0, 1, 0)
	if err != nil || g.N() != 252 {
		t.Fatalf("circuit load: %v, n=%d", err, g.N())
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	if err := fascia.SaveGraph(path, g); err != nil {
		t.Fatal(err)
	}
	g2, err := loadGraph(path, "", 1, 1, 0)
	if err != nil || g2.N() != g.N() {
		t.Fatalf("file load: %v", err)
	}
}

func TestRunEndToEnd(t *testing.T) {
	// Full CLI flow on a tiny instance, output to stdout.
	old := os.Stdout
	null, _ := os.Open(os.DevNull)
	defer null.Close()
	os.Stdout = os.NewFile(null.Fd(), "null")
	defer func() { os.Stdout = old }()

	args := []string{
		"-network", "circuit", "-scale", "0.5", "-template", "U3-1",
		"-iterations", "3", "-exact", "-sample", "2", "-seed", "5",
	}
	if err := run(args); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := run([]string{"-list-networks"}); err != nil {
		t.Fatalf("list: %v", err)
	}
	for _, bad := range [][]string{
		{"-network", "circuit", "-parallel", "bogus"},
		{"-network", "circuit", "-table", "bogus"},
		{"-network", "circuit", "-table", "succinct"},
		{"-network", "circuit", "-kernel", "direct"},
		{"-network", "circuit", "-partition", "bogus"},
		{"-template", "U3-1"}, // no graph
	} {
		if err := run(bad); err == nil {
			t.Errorf("args %v accepted", bad)
		}
	}
	// Epsilon/delta path and alternative enum values.
	if err := run([]string{
		"-network", "circuit", "-scale", "0.3", "-template", "path:3",
		"-epsilon", "2", "-delta", "0.4", "-parallel", "outer",
		"-table", "hash", "-partition", "balanced", "-labels", "3",
	}); err != nil {
		t.Fatalf("accuracy path: %v", err)
	}
}

func TestRunConvergeAndInduced(t *testing.T) {
	old := os.Stdout
	null, _ := os.Open(os.DevNull)
	defer null.Close()
	os.Stdout = os.NewFile(null.Fd(), "null")
	defer func() { os.Stdout = old }()

	if err := run([]string{
		"-network", "circuit", "-scale", "0.4", "-template", "U3-1",
		"-converge", "0.05", "-exact", "-induced", "-seed", "2",
	}); err != nil {
		t.Fatal(err)
	}
}

func TestRunMotifsMode(t *testing.T) {
	old := os.Stdout
	null, _ := os.Open(os.DevNull)
	defer null.Close()
	os.Stdout = os.NewFile(null.Fd(), "null")
	defer func() { os.Stdout = old }()

	if err := run([]string{
		"-network", "circuit", "-scale", "0.4", "-motifs", "4", "-iterations", "20", "-seed", "3",
	}); err != nil {
		t.Fatal(err)
	}
}
