// Package apivet holds the statsvet analyzers for runtime-API misuse in
// user Go code — the mistakes that compile fine, run fine, and quietly
// disable or corrupt speculation. Four
// analyzers ship:
//
//   - negopts: a negative GroupSize/Window/RedoMax/Rollback/Workers in an
//     engine options literal. The engine clamps negatives to their floor,
//     so `RedoMax: -1` silently means "never redo" — almost always a bug.
//   - droppedstats: discarding a state dependence's results — calling
//     RunSTATS, Run or Join as a bare statement (dropping the outputs and
//     the speculation Stats the caller needs to notice aborts), or Start
//     as a bare statement (dropping its error).
//   - specclosure: a compute or auxiliary closure that assigns to a
//     variable captured from the enclosing scope. Speculated closures run
//     concurrently and may be re-executed or squashed; state must flow
//     through the state parameter, not shared captures.
//   - reserveops: misuse inside a ReserveOps literal — a Footprint that
//     returns a slice captured from the enclosing scope (footprints are
//     held across the round, so invocations would alias one slice), a
//     constant slot index outside [0, NumSlots), or a Merge that mutates
//     its src argument (the committed winner's state).
//
// The analyzers are deliberately syntactic (stdlib go/ast only, no
// golang.org/x/tools dependency, which keeps them usable in hermetic
// builds) and tuned for zero false positives over this repository:
// negopts only fires on literal negative constants, droppedstats and
// specclosure only on receivers provably created by the STATS
// constructors in the same function.
package apivet

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one Go-source finding.
type Diagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Msg      string `json:"msg"`
}

// String renders the finding in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Analyzer, d.Msg)
}

// Analyzer is one Go-source check.
type Analyzer struct {
	// Name keys the analyzer in diagnostics.
	Name string
	// Doc is the one-line description.
	Doc string
	// Run inspects one parsed file.
	Run func(fset *token.FileSet, file *ast.File) []Diagnostic
}

// Analyzers returns the runtime-API analyzers in execution order.
func Analyzers() []*Analyzer {
	return []*Analyzer{NegOpts, DroppedStats, SpecClosure, ReserveOpsLit}
}

// AnalyzeFile runs every analyzer over one parsed file.
func AnalyzeFile(fset *token.FileSet, file *ast.File) []Diagnostic {
	var out []Diagnostic
	for _, a := range Analyzers() {
		out = append(out, a.Run(fset, file)...)
	}
	return out
}

// AnalyzePaths parses and analyzes the given paths: a .go file is
// analyzed directly; a directory is walked recursively for non-test .go
// files (skipping testdata and hidden directories). Findings are sorted
// by file position.
func AnalyzePaths(paths []string) ([]Diagnostic, error) {
	fset := token.NewFileSet()
	var out []Diagnostic
	analyze := func(path string) error {
		file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		out = append(out, AnalyzeFile(fset, file)...)
		return nil
	}
	for _, p := range paths {
		info, err := os.Stat(p)
		if err != nil {
			return nil, err
		}
		if !info.IsDir() {
			if err := analyze(p); err != nil {
				return nil, err
			}
			continue
		}
		err = filepath.WalkDir(p, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if d.Name() == "testdata" || (strings.HasPrefix(d.Name(), ".") && len(d.Name()) > 1) {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			return analyze(path)
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Col < b.Col
	})
	return out, nil
}

// diag builds a positioned finding.
func diag(fset *token.FileSet, pos token.Pos, analyzer, format string, args ...any) Diagnostic {
	p := fset.Position(pos)
	return Diagnostic{File: p.Filename, Line: p.Line, Col: p.Column, Analyzer: analyzer, Msg: fmt.Sprintf(format, args...)}
}
