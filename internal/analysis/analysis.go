// Package analysis is a self-contained static-analysis framework in
// the shape of golang.org/x/tools/go/analysis, built only on the
// standard library (go/ast, go/types, go/importer) so the repository
// needs no external dependency to machine-check its own invariants.
//
// The repo encodes several correctness contracts the compiler cannot
// see: pooled-buffer hygiene (GetWindow/PutWindow, Result.Release,
// tail-pool vs full-pool separation), the immutable/atomic snapshot
// discipline of pugz.File (atomic.Pointer publish, copy-on-write under
// cpMu), and the fast-decode bail contract (the decodeFast kernel
// must return on invalid input without consuming bits). The analyzers
// in the subpackages turn those comments into build gates; cmd/pugzvet
// packages them as a `go vet -vettool` binary (see internal/
// analysis/unit for the driver protocol).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one invariant checker. Run inspects a single
// type-checked package and reports findings through the Pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and flags. It must be
	// a valid Go identifier.
	Name string
	// Doc is the one-paragraph description shown by -help and README.
	Doc string
	// Run executes the analyzer over one package.
	Run func(*Pass) error
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Pass carries one package's parsed and type-checked state through an
// analyzer run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// modulePath scopes cross-package rules (sentinelwrap) to packages of
// the module under analysis: stdlib sentinels like io.EOF keep their
// contract-bare comparisons, module sentinels must go through
// errors.Is. Drivers set it from the vet config's ModulePath (or the
// fixture namespace in tests).
var modulePath string

// SetModule declares the module path the current driver is analyzing.
func SetModule(path string) { modulePath = path }

// InModule reports whether pkg belongs to the module under analysis.
func InModule(pkg *types.Package) bool {
	if pkg == nil || modulePath == "" {
		return false
	}
	p := pkg.Path()
	return p == modulePath || strings.HasPrefix(p, modulePath+"/")
}
