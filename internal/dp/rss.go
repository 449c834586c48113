package dp

import (
	"math"
	"os"
	"sync"
)

// statmFile is the process's /proc/self/statm, opened once and re-read
// in place (nil where procfs is unavailable): a sample costs two pread
// calls into a stack buffer and no allocation, so RunStats can sample
// after every batch of a warm run.
var statmFile = sync.OnceValue(func() *os.File {
	f, _ := os.Open("/proc/self/statm")
	return f
})

// readRSSBytes returns the process's current resident-set size read
// from /proc/self/statm (field 2, in pages), or 0 on platforms without
// procfs. RunStats folds samples taken at iteration boundaries into
// PeakRSSBytes — the whole-process figure a memory budget bounds,
// unlike the table-only PeakTableBytes.
func readRSSBytes() int64 {
	f := statmFile()
	if f == nil {
		return 0
	}
	// The line is far shorter than the buffer, so ReadAt ends with
	// io.EOF after reading all of it; only the bytes count.
	var buf [128]byte
	n, _ := f.ReadAt(buf[:], 0)
	return statmResidentPages(buf[:n]) * int64(os.Getpagesize())
}

// statmResidentPages parses field 2 of a statm line, the resident-set
// size in pages: 0 when the field is missing, not a decimal number, or
// out of int64 range.
func statmResidentPages(b []byte) int64 {
	i := skipSpace(b, 0)
	for i < len(b) && !isSpace(b[i]) {
		i++
	}
	i = skipSpace(b, i)
	start := i
	var pages int64
	for ; i < len(b) && !isSpace(b[i]); i++ {
		d := int64(b[i]) - '0'
		if d < 0 || d > 9 || pages > (math.MaxInt64-d)/10 {
			return 0
		}
		pages = pages*10 + d
	}
	if i == start {
		return 0
	}
	return pages
}

// skipSpace returns the index of the first non-space byte of b at or
// after i.
func skipSpace(b []byte, i int) int {
	for i < len(b) && isSpace(b[i]) {
		i++
	}
	return i
}

// isSpace reports whether c is ASCII white space, as strings.Fields
// splits it.
func isSpace(c byte) bool {
	switch c {
	case ' ', '\t', '\n', '\v', '\f', '\r':
		return true
	}
	return false
}
