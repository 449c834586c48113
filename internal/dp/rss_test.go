package dp

import (
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// TestStatmResidentPages checks the hand-rolled statm parse against the
// strings.Fields + strconv.ParseInt reference on fixed statm lines,
// malformed ones included.
func TestStatmResidentPages(t *testing.T) {
	ref := func(line string) int64 {
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		pages, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil || pages < 0 {
			return 0
		}
		return pages
	}
	for _, line := range []string{
		"1185429 31062 6938 1190 0 1165734 0\n",
		"4217 1024 512 2 0 890 0\n",
		"0 0 0 0 0 0 0\n",
		"1 2",
		"  7   8  \n",
		"\t5\t6\n",
		"123 9223372036854775807 1\n",
		"123 9223372036854775808 1\n",
		"123 99999999999999999999\n",
		"",
		"\n",
		"123",
		"123 ",
		"123 abc 4",
		"123 -4 5",
		"123 4x 5",
	} {
		if got, want := statmResidentPages([]byte(line)), ref(line); got != want {
			t.Errorf("statmResidentPages(%q) = %d, want %d", line, got, want)
		}
	}
}

// TestReadRSSBytesAllocs pins readRSSBytes, which RunStats samples after
// every batch, to zero allocations.
func TestReadRSSBytesAllocs(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("reads /proc/self/statm")
	}
	if raceEnabled {
		t.Skip("the race runtime's syscall hooks move the read buffer to the heap")
	}
	if readRSSBytes() <= 0 {
		t.Fatal("readRSSBytes read no resident set on Linux")
	}
	if allocs := testing.AllocsPerRun(100, func() { readRSSBytes() }); allocs != 0 {
		t.Fatalf("readRSSBytes allocated %v objects per call, want 0", allocs)
	}
}
