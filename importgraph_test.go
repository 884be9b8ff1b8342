package pugz

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestProductionGraphIsDecompressorOnly checks that the shipped
// binaries link the decompressor and nothing the paper measures it
// against: no compressor (lz77, deflate), no BGZF baseline, no guesser,
// and none of the experiment harness. Offline and with the local
// toolchain only, like TestBenchmarkModuleBuilds.
func TestProductionGraphIsDecompressorOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go list over the command packages; skipped in -short")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go command not on PATH")
	}
	list := exec.Command(goTool, "list", "-deps", "./cmd/pugz", "./cmd/pugzd")
	list.Env = append(os.Environ(), "GOPROXY=off", "GOTOOLCHAIN=local")
	out, err := list.CombinedOutput()
	if err != nil {
		t.Fatalf("go list -deps failed: %v\n%s", err, out)
	}
	deps := map[string]bool{}
	for _, p := range strings.Fields(string(out)) {
		deps[p] = true
	}
	if !deps["repro"] {
		t.Fatalf("go list -deps did not list the root package:\n%s", out)
	}
	for _, p := range []string{"lz77", "deflate", "bgzf", "guess", "model", "stats", "experiments"} {
		if deps["repro/internal/"+p] {
			t.Errorf("cmd/pugz or cmd/pugzd links repro/internal/%s", p)
		}
	}
	if deps["repro/baseline"] {
		t.Error("cmd/pugz or cmd/pugzd links repro/baseline")
	}
}
