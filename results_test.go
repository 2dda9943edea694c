package repro

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestCommittedImagesComplete: every committed figure image under results/
// carries exactly the pixel payload its Netpbm header promises. A file cut
// short (or padded) by a text-mode transfer decodes as a smaller or garbled
// image without any tool complaining, so the length is pinned here.
func TestCommittedImagesComplete(t *testing.T) {
	var paths []string
	for _, pat := range []string{"results/*.ppm", "results/*.pgm"} {
		m, err := filepath.Glob(pat)
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, m...)
	}
	if len(paths) == 0 {
		t.Fatal("no committed images under results/")
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		w, h, channels, payload, err := parseNetpbm(data)
		if err != nil {
			t.Errorf("%s: %v", p, err)
			continue
		}
		if want := w * h * channels; payload != want {
			t.Errorf("%s: %dx%d header with %d channel(s) implies %d payload bytes, file has %d",
				p, w, h, channels, want, payload)
		}
	}
}

// parseNetpbm reads a binary P5 (gray) or P6 (RGB) header with an 8-bit
// maxval and returns the dimensions, the channel count and the number of
// bytes that follow the header.
func parseNetpbm(data []byte) (w, h, channels, payload int, err error) {
	var magic string
	var maxval int
	// Fscan skips the whitespace between header fields; the single
	// whitespace byte after maxval ends the header.
	r := bytes.NewReader(data)
	if _, err := fmt.Fscan(r, &magic, &w, &h, &maxval); err != nil {
		return 0, 0, 0, 0, fmt.Errorf("header: %w", err)
	}
	switch magic {
	case "P5":
		channels = 1
	case "P6":
		channels = 3
	default:
		return 0, 0, 0, 0, fmt.Errorf("magic %q, want P5 or P6", magic)
	}
	if maxval < 1 || maxval > 255 {
		return 0, 0, 0, 0, fmt.Errorf("maxval %d, want 1..255", maxval)
	}
	if _, err := r.ReadByte(); err != nil {
		return 0, 0, 0, 0, fmt.Errorf("header: %w", err)
	}
	return w, h, channels, r.Len(), nil
}
