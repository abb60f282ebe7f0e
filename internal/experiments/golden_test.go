package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// render prints All(cfg) exactly as cmd/experiments does: one fmt.Println
// per table.
func render(cfg Config) string {
	var b strings.Builder
	for _, t := range All(cfg) {
		fmt.Fprintln(&b, t)
	}
	return b.String()
}

// TestGolden pins the full experiment output byte for byte, so a
// refactor of the runtime underneath the experiments cannot change a
// single figure, verdict or trace. Regenerate with -update only when an
// experiment's output is meant to change.
func TestGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{{"quick", Config{Quick: true}}, {"full", Config{}}} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join("testdata", tc.name+".golden")
			got := render(tc.cfg)
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Fatalf("output differs from %s (%d vs %d bytes); first difference:\n%s",
					path, len(got), len(want), firstDiff(got, string(want)))
			}
		})
	}
}

func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n  got:  %q\n  want: %q", i+1, gl, wl)
		}
	}
	return ""
}
