package pugz

import (
	"os"
	"os/exec"
	"testing"
)

// TestBenchmarkModuleBuilds vets benchmark/, a module of its own that
// `go test ./...` never builds, against this tree. The benchmark links
// internal packages, so an internal API change can break every
// benchmark run while the module's own tests stay green; this is where
// that shows. Offline and with the local toolchain only: the benchmark
// module has no dependency outside this repository.
func TestBenchmarkModuleBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and vets the benchmark module; skipped in -short")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go command not on PATH")
	}
	vet := exec.Command(goTool, "vet", ".")
	vet.Dir = "benchmark"
	vet.Env = append(os.Environ(), "GOPROXY=off", "GOTOOLCHAIN=local")
	if out, err := vet.CombinedOutput(); err != nil {
		t.Fatalf("go vet . in benchmark/ failed: %v\n%s", err, out)
	}
}
