package apivet

import (
	"go/ast"
	"go/token"
)

// optionTypes are the engine-option struct names whose literals negopts
// inspects; optionFields are the count-valued fields the engines clamp at
// a floor, making negative literals silent no-ops.
var (
	optionTypes  = map[string]bool{"Options": true, "SpecOptions": true, "RuntimeOptions": true}
	optionFields = map[string]string{
		"GroupSize": "treats values below 1 as 1",
		"Window":    "treats negative values as 0 (auxiliary code sees no inputs)",
		"RedoMax":   "treats negative values as 0 (no re-executions, so every mismatch aborts)",
		"Rollback":  "clamps it to [1, group length]",
		"Workers":   "treats values below 1 as 1",
	}
)

// NegOpts flags negative literals in engine-option struct fields.
var NegOpts = &Analyzer{
	Name: "negopts",
	Doc:  "negative engine option literal the runtime silently clamps",
	Run:  runNegOpts,
}

func runNegOpts(fset *token.FileSet, file *ast.File) []Diagnostic {
	var out []Diagnostic
	ast.Inspect(file, func(n ast.Node) bool {
		lit, ok := n.(*ast.CompositeLit)
		if !ok || !isOptionsType(lit.Type) {
			return true
		}
		for _, el := range lit.Elts {
			kv, ok := el.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			key, ok := kv.Key.(*ast.Ident)
			if !ok {
				continue
			}
			clamp, tracked := optionFields[key.Name]
			if !tracked || !isNegativeLiteral(kv.Value) {
				continue
			}
			out = append(out, diag(fset, kv.Pos(), "negopts",
				"%s is negative; the engine %s — use 0 or a positive value", key.Name, clamp))
		}
		return true
	})
	return out
}

// isOptionsType reports whether a composite literal's type is one of the
// engine option structs (qualified like core.Options, or bare after a
// dot-import).
func isOptionsType(t ast.Expr) bool {
	switch tt := t.(type) {
	case *ast.SelectorExpr:
		return optionTypes[tt.Sel.Name]
	case *ast.Ident:
		return optionTypes[tt.Name]
	}
	return false
}

// isNegativeLiteral matches a unary minus on a constant literal.
func isNegativeLiteral(e ast.Expr) bool {
	u, ok := e.(*ast.UnaryExpr)
	if !ok || u.Op != token.SUB {
		return false
	}
	_, lit := u.X.(*ast.BasicLit)
	return lit
}

// DroppedStats flags bare-statement calls that discard a state
// dependence's results: RunSTATS anywhere (it always returns the
// speculation Stats), and Run/Join/Start on receivers created by the
// STATS constructors in the same function.
var DroppedStats = &Analyzer{
	Name: "droppedstats",
	Doc:  "state-dependence results (outputs, Stats, or Start error) discarded",
	Run:  runDroppedStats,
}

// depMethodMsg names what each bare-statement dependence method discards.
var depMethodMsg = map[string]string{
	"Run":   "discards the outputs, final state and speculation stats",
	"Join":  "discards the outputs, final state and speculation stats",
	"Start": "discards the error; a rejected dependence would fail silently",
}

func runDroppedStats(fset *token.FileSet, file *ast.File) []Diagnostic {
	var out []Diagnostic
	forEachFuncBody(file, func(body *ast.BlockStmt) {
		deps := dependenceVars(body)
		ast.Inspect(body, func(n ast.Node) bool {
			es, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := es.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if sel.Sel.Name == "RunSTATS" {
				out = append(out, diag(fset, es.Pos(), "droppedstats",
					"result of RunSTATS discarded; the Stats return is how callers notice aborts and wasted work"))
				return true
			}
			msg, tracked := depMethodMsg[sel.Sel.Name]
			recv, isIdent := sel.X.(*ast.Ident)
			if tracked && isIdent && deps[recv.Name] {
				out = append(out, diag(fset, es.Pos(), "droppedstats",
					"%s.%s() as a bare statement %s", recv.Name, sel.Sel.Name, msg))
			}
			return true
		})
	})
	return out
}

// depConstructors are the call names whose results droppedstats and
// specclosure treat as state dependences.
var depConstructors = map[string]bool{"NewStateDependence": true, "New": true, "Attach": true}

// dependenceVars returns the names assigned from a STATS constructor
// (stats.NewStateDependence, core.New, stats.Attach) inside the body.
func dependenceVars(body *ast.BlockStmt) map[string]bool {
	deps := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || !isDepConstructor(call.Fun) {
			return true
		}
		for _, lhs := range as.Lhs {
			if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
				deps[id.Name] = true
			}
		}
		return true
	})
	return deps
}

// isDepConstructor matches stats.NewStateDependence / core.New / their
// dot-imported spellings.
func isDepConstructor(fun ast.Expr) bool {
	switch f := fun.(type) {
	case *ast.SelectorExpr:
		return depConstructors[f.Sel.Name]
	case *ast.Ident:
		return depConstructors[f.Name]
	case *ast.IndexExpr: // explicit instantiation: core.New[I, S, O](...)
		return isDepConstructor(f.X)
	case *ast.IndexListExpr:
		return isDepConstructor(f.X)
	}
	return false
}

// SpecClosure flags compute/auxiliary closures that assign to variables
// captured from the enclosing scope. The engine runs these closures
// concurrently across groups and may re-execute or squash them, so a
// captured write is a data race and corrupts squashed-work isolation:
// state must flow through the state parameter and return value.
var SpecClosure = &Analyzer{
	Name: "specclosure",
	Doc:  "speculated closure mutates captured shared state",
	Run:  runSpecClosure,
}

// speculatedArgSites names the calls whose closure arguments the engine
// speculates: the compute argument of NewStateDependence/New, and the
// auxiliary argument of SetAuxiliary/New.
var speculatedArgSites = map[string]bool{"NewStateDependence": true, "New": true, "SetAuxiliary": true}

func runSpecClosure(fset *token.FileSet, file *ast.File) []Diagnostic {
	var out []Diagnostic
	forEachFuncBody(file, func(body *ast.BlockStmt) {
		// Func literals bound to locals, so SetAuxiliary(aux) can be
		// traced back to `aux := func(...) {...}`.
		bound := map[string]*ast.FuncLit{}
		ast.Inspect(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i := range as.Lhs {
				id, ok := as.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				if fl, ok := as.Rhs[i].(*ast.FuncLit); ok {
					bound[id.Name] = fl
				}
			}
			return true
		})

		seen := map[*ast.FuncLit]bool{}
		ast.Inspect(body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name, ok := callName(call.Fun)
			if !ok || !speculatedArgSites[name] {
				return true
			}
			for _, arg := range call.Args {
				var fl *ast.FuncLit
				switch a := arg.(type) {
				case *ast.FuncLit:
					fl = a
				case *ast.Ident:
					fl = bound[a.Name]
				}
				if fl == nil || seen[fl] {
					continue
				}
				seen[fl] = true
				out = append(out, capturedWrites(fset, fl)...)
			}
			return true
		})
	})
	return out
}

// callName extracts the called function's bare name.
func callName(fun ast.Expr) (string, bool) {
	switch f := fun.(type) {
	case *ast.SelectorExpr:
		return f.Sel.Name, true
	case *ast.Ident:
		return f.Name, true
	case *ast.IndexExpr:
		return callName(f.X)
	case *ast.IndexListExpr:
		return callName(f.X)
	}
	return "", false
}

// capturedWrites reports assignments inside fl whose target's base
// identifier is captured from the enclosing scope (not a parameter and
// not declared inside the literal).
func capturedWrites(fset *token.FileSet, fl *ast.FuncLit) []Diagnostic {
	local := localNames(fl)

	var out []Diagnostic
	report := func(target ast.Expr) {
		base, ok := baseIdent(target)
		if !ok || local[base.Name] {
			return
		}
		out = append(out, diag(fset, target.Pos(), "specclosure",
			"speculated closure mutates captured variable %s; the engine may run, re-execute or squash it concurrently — thread state through the state parameter instead", base.Name))
	}
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if s.Tok != token.DEFINE {
				for _, lhs := range s.Lhs {
					report(lhs)
				}
			}
		case *ast.IncDecStmt:
			report(s.X)
		}
		return true
	})
	return out
}

// localNames collects every identifier a func literal declares —
// parameters, named results, and any name introduced anywhere inside the
// body (:=, var, range, nested literal params). Collecting them up front
// over-approximates scoping, which can only suppress findings — the safe
// direction for a syntactic checker.
func localNames(fl *ast.FuncLit) map[string]bool {
	local := map[string]bool{"_": true, "nil": true}
	for _, field := range fl.Type.Params.List {
		for _, name := range field.Names {
			local[name.Name] = true
		}
	}
	if fl.Type.Results != nil {
		for _, field := range fl.Type.Results.List {
			for _, name := range field.Names {
				local[name.Name] = true
			}
		}
	}
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		switch d := n.(type) {
		case *ast.AssignStmt:
			if d.Tok == token.DEFINE {
				for _, lhs := range d.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						local[id.Name] = true
					}
				}
			}
		case *ast.ValueSpec:
			for _, name := range d.Names {
				local[name.Name] = true
			}
		case *ast.RangeStmt:
			if d.Tok == token.DEFINE {
				for _, e := range []ast.Expr{d.Key, d.Value} {
					if id, ok := e.(*ast.Ident); ok {
						local[id.Name] = true
					}
				}
			}
		case *ast.FuncLit:
			for _, field := range d.Type.Params.List {
				for _, name := range field.Names {
					local[name.Name] = true
				}
			}
		}
		return true
	})
	return local
}

// ReserveOpsLit flags reservation-protocol misuse inside ReserveOps
// composite literals: a Footprint that returns a slice captured from the
// enclosing scope (the engine holds footprints across the round, so a
// shared slice aliases every invocation's reservation), a constant slot
// index outside [0, NumSlots), and a Merge that mutates its src argument
// (the committed winner's state, which other attempts still read).
var ReserveOpsLit = &Analyzer{
	Name: "reserveops",
	Doc:  "ReserveOps misuse: aliased Footprint slice, out-of-range slot constant, Merge mutating src",
	Run:  runReserveOps,
}

func runReserveOps(fset *token.FileSet, file *ast.File) []Diagnostic {
	var out []Diagnostic
	ast.Inspect(file, func(n ast.Node) bool {
		lit, ok := n.(*ast.CompositeLit)
		if !ok || !isReserveOpsType(lit.Type) {
			return true
		}
		fields := map[string]*ast.FuncLit{}
		for _, el := range lit.Elts {
			kv, ok := el.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			key, ok := kv.Key.(*ast.Ident)
			if !ok {
				continue
			}
			if fl, ok := kv.Value.(*ast.FuncLit); ok {
				fields[key.Name] = fl
			}
		}
		numSlots := constSlotCount(fields["NumSlots"])
		if fp := fields["Footprint"]; fp != nil {
			out = append(out, checkFootprintLit(fset, fp, numSlots)...)
		}
		if m := fields["Merge"]; m != nil {
			out = append(out, checkMergeLit(fset, m)...)
		}
		return true
	})
	return out
}

// isReserveOpsType matches core.ReserveOps / ReserveOps, possibly wrapped
// in an explicit instantiation (ReserveOps[I, S]{...} parses as an
// IndexListExpr around the type name).
func isReserveOpsType(t ast.Expr) bool {
	switch tt := t.(type) {
	case *ast.SelectorExpr:
		return tt.Sel.Name == "ReserveOps"
	case *ast.Ident:
		return tt.Name == "ReserveOps"
	case *ast.IndexExpr:
		return isReserveOpsType(tt.X)
	case *ast.IndexListExpr:
		return isReserveOpsType(tt.X)
	}
	return false
}

// constSlotCount extracts N from a NumSlots literal of the form
// func(...) int { return N }; -1 means the count is not a syntactic
// constant.
func constSlotCount(fl *ast.FuncLit) int {
	if fl == nil || len(fl.Body.List) != 1 {
		return -1
	}
	ret, ok := fl.Body.List[0].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return -1
	}
	return intLitValue(ret.Results[0])
}

// intLitValue evaluates a non-negative integer literal; -1 otherwise.
func intLitValue(e ast.Expr) int {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.INT {
		return -1
	}
	n := 0
	for _, c := range lit.Value {
		if c < '0' || c > '9' {
			return -1
		}
		n = n*10 + int(c-'0')
	}
	return n
}

// checkFootprintLit inspects a Footprint literal for captured-slice
// returns and out-of-range constant indices.
func checkFootprintLit(fset *token.FileSet, fl *ast.FuncLit, numSlots int) []Diagnostic {
	local := localNames(fl)
	var out []Diagnostic
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.ReturnStmt:
			for _, res := range s.Results {
				if id, ok := res.(*ast.Ident); ok && !local[id.Name] {
					out = append(out, diag(fset, res.Pos(), "reserveops",
						"Footprint returns captured slice %s; the engine holds footprints across the round, so every invocation would alias one slice — return a fresh slice per call", id.Name))
				}
			}
		case *ast.CompositeLit:
			for _, el := range s.Elts {
				v := intLitValue(el)
				if u, ok := el.(*ast.UnaryExpr); ok && u.Op == token.SUB && intLitValue(u.X) >= 0 {
					out = append(out, diag(fset, el.Pos(), "reserveops",
						"negative slot index in Footprint; reservation slots are [0, NumSlots)"))
					continue
				}
				if v >= 0 && numSlots >= 0 && v >= numSlots {
					out = append(out, diag(fset, el.Pos(), "reserveops",
						"constant slot index %d with NumSlots %d; reservation slots are [0, NumSlots)", v, numSlots))
				}
			}
		}
		return true
	})
	return out
}

// checkMergeLit flags assignments through Merge's second parameter (src,
// the committed winner's state — attempts merging later still read it).
func checkMergeLit(fset *token.FileSet, fl *ast.FuncLit) []Diagnostic {
	var params []string
	for _, field := range fl.Type.Params.List {
		for _, name := range field.Names {
			params = append(params, name.Name)
		}
	}
	if len(params) < 2 {
		return nil
	}
	src := params[1]
	var out []Diagnostic
	report := func(target ast.Expr) {
		base, ok := baseIdent(target)
		if !ok || base.Name != src {
			return
		}
		if _, isBare := target.(*ast.Ident); isBare {
			return // rebinding the local src variable, not mutating through it
		}
		out = append(out, diag(fset, target.Pos(), "reserveops",
			"Merge mutates its src argument %s; src is the committed winner's state and later merges still read it — write into dst only", src))
	}
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if s.Tok != token.DEFINE {
				for _, lhs := range s.Lhs {
					report(lhs)
				}
			}
		case *ast.IncDecStmt:
			report(s.X)
		}
		return true
	})
	return out
}

// baseIdent resolves an assignment target to its base identifier
// (x, x.f, x[i], *x all resolve to x).
func baseIdent(e ast.Expr) (*ast.Ident, bool) {
	for {
		switch t := e.(type) {
		case *ast.Ident:
			return t, true
		case *ast.SelectorExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		case *ast.ParenExpr:
			e = t.X
		default:
			return nil, false
		}
	}
}

// forEachFuncBody visits every function body in the file, including
// methods and top-level function literals.
func forEachFuncBody(file *ast.File, fn func(*ast.BlockStmt)) {
	for _, decl := range file.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
			fn(fd.Body)
		}
	}
}
