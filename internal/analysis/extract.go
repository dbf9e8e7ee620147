package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// This file is graphlint's symbolic extractor. Driver code opts in
// through comment directives:
//
//	//amr:graph driver=<name> [phase=<label>] seq=<int>
//
// on a function declaration makes the function one pipeline stage of the
// named driver's per-timestep graph, and
//
//	//amr:region <state|stage> [match=f1,f2]
//
// on a function that returns a region handle from indices (or on a
// dependency-key struct type of the any-keyed front door) declares how its
// results name regions (see regionSpec): a call evaluates to a term of the
// function's class whose fields are its arguments, named by the parameters.
// The extractor walks each anchored function abstractly — one pass per loop
// body, a single mutable environment — evaluating expressions into symval
// terms, and materialises task.Spawn calls, point-to-point sends/receives,
// collectives and WaitKeys sinks as graph nodes. In-package callees resolve
// through the type-check (with a unique-bare-name fallback, since the
// tolerant loader cannot always resolve method references) and are walked
// inline, so helpers like flushChecksum or reduceAndValidate contribute their
// events to the anchored phase that reaches them.

const maxInlineDepth = 8

// graphAnchor is one parsed //amr:graph directive.
type graphAnchor struct {
	driver string
	phase  string
	seq    int
	fd     *ast.FuncDecl
	pars   []parSpec
}

// parSpec is one parsed //amr:par directive: the declared multiplicity of
// a parallel (or deliberately serial) work region inside an anchored
// phase. label names the work — a spawned task label in the data-flow
// drivers, a parallel-for or master-serial loop in the others — and axis
// names the instance-count knob the cost model scales it by (blocks,
// segs, msgs, ...). Regions whose label matches no extracted node become
// synthetic parallel-region nodes of the phase, which is how the loop
// drivers (whose regions the extractor does not materialise) declare
// their width; serial marks a region that stays on the master thread at
// any worker count.
type parSpec struct {
	Phase  string `json:"phase"`
	Label  string `json:"label"`
	Axis   string `json:"axis"`
	Serial bool   `json:"serial,omitempty"`

	pos token.Pos
}

// extractor indexes one package's directives, types and functions.
type extractor struct {
	pass    *Pass
	structs map[string]*structInfo        // struct types, and region functions by name
	regions map[*ast.FuncDecl]*structInfo // //amr:region functions
	byObj   map[types.Object]*ast.FuncDecl
	byName  map[string]*ast.FuncDecl // nil value: name is ambiguous
	anchors []graphAnchor
}

func newExtractor(pass *Pass) *extractor {
	ex := &extractor{
		pass:    pass,
		structs: make(map[string]*structInfo),
		regions: make(map[*ast.FuncDecl]*structInfo),
		byObj:   make(map[types.Object]*ast.FuncDecl),
		byName:  make(map[string]*ast.FuncDecl),
	}
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				ex.indexFunc(n)
			case *ast.GenDecl:
				if n.Tok == token.TYPE {
					for _, spec := range n.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok {
							continue
						}
						doc := ts.Doc
						if doc == nil && len(n.Specs) == 1 {
							doc = n.Doc
						}
						ex.indexType(ts, doc)
					}
				}
			}
			return true
		})
	}
	return ex
}

func (ex *extractor) indexFunc(fd *ast.FuncDecl) {
	if fd.Body == nil {
		return
	}
	if obj := ex.pass.Pkg.Info.Defs[fd.Name]; obj != nil {
		ex.byObj[obj] = fd
	}
	if prev, ok := ex.byName[fd.Name.Name]; ok && prev != fd {
		ex.byName[fd.Name.Name] = nil // ambiguous
	} else {
		ex.byName[fd.Name.Name] = fd
	}
	if spec := ex.parseRegion(fd.Doc, fd.Pos()); spec != nil {
		info := &structInfo{name: fd.Name.Name, region: spec}
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				info.fields = append(info.fields, structField{name: name.Name, zero: zeroFor(field.Type)})
			}
		}
		ex.regions[fd], ex.structs[info.name] = info, info
	}
	pars := ex.parsePars(fd)
	if dir, ok := directiveLine(fd.Doc, "amr:graph"); ok {
		a := graphAnchor{phase: fd.Name.Name, seq: -1, fd: fd}
		for _, f := range strings.Fields(dir) {
			switch {
			case strings.HasPrefix(f, "driver="):
				a.driver = strings.TrimPrefix(f, "driver=")
			case strings.HasPrefix(f, "phase="):
				a.phase = strings.TrimPrefix(f, "phase=")
			case strings.HasPrefix(f, "seq="):
				n, err := strconv.Atoi(strings.TrimPrefix(f, "seq="))
				if err == nil {
					a.seq = n
				}
			}
		}
		if a.driver == "" || a.seq < 0 {
			ex.pass.Reportf(fd.Pos(), "malformed //amr:graph directive: need driver=<name> and seq=<int>")
			return
		}
		a.pars = pars
		ex.anchors = append(ex.anchors, a)
	} else if len(pars) > 0 {
		ex.pass.Reportf(fd.Pos(), "//amr:par requires an //amr:graph anchor on the same function")
	}
}

// parsePars reads every //amr:par directive of a function's doc comment.
func (ex *extractor) parsePars(fd *ast.FuncDecl) []parSpec {
	var pars []parSpec
	for _, dir := range directiveLines(fd.Doc, "amr:par") {
		p := parSpec{pos: fd.Pos()}
		for _, f := range strings.Fields(dir) {
			switch {
			case strings.HasPrefix(f, "label="):
				p.Label = strings.TrimPrefix(f, "label=")
			case strings.HasPrefix(f, "axis="):
				p.Axis = strings.TrimPrefix(f, "axis=")
			case f == "serial":
				p.Serial = true
			}
		}
		if p.Label == "" || p.Axis == "" {
			ex.pass.Reportf(fd.Pos(), "malformed //amr:par directive: need label=<name> and axis=<name>")
			continue
		}
		pars = append(pars, p)
	}
	return pars
}

func (ex *extractor) indexType(ts *ast.TypeSpec, doc *ast.CommentGroup) {
	st, ok := ts.Type.(*ast.StructType)
	if !ok {
		return
	}
	info := &structInfo{name: ts.Name.Name}
	for _, field := range st.Fields.List {
		if len(field.Names) == 0 {
			// Embedded field: promoted selectors render as TypeName.Field.
			if name := baseTypeName(field.Type); name != "" {
				info.fields = append(info.fields, structField{name: name, zero: "{}"})
			}
			continue
		}
		zero := zeroFor(field.Type)
		for _, name := range field.Names {
			info.fields = append(info.fields, structField{name: name.Name, zero: zero})
		}
	}
	info.region = ex.parseRegion(doc, ts.Pos())
	ex.structs[info.name] = info
}

// parseRegion reads the //amr:region directive of a doc comment, nil when
// there is none (or a malformed one, which it reports).
func (ex *extractor) parseRegion(doc *ast.CommentGroup, pos token.Pos) *regionSpec {
	dir, ok := directiveLine(doc, "amr:region")
	if !ok {
		return nil
	}
	spec := &regionSpec{}
	for _, f := range strings.Fields(dir) {
		switch {
		case f == "state" || f == "stage":
			spec.kind = f
		case strings.HasPrefix(f, "match="):
			for _, m := range strings.Split(strings.TrimPrefix(f, "match="), ",") {
				if m != "" {
					spec.match = append(spec.match, m)
				}
			}
		}
	}
	if spec.kind == "" {
		ex.pass.Reportf(pos, "malformed //amr:region directive: need state or stage")
		return nil
	}
	return spec
}

// directiveLine finds `//<prefix> rest` in a comment group.
func directiveLine(doc *ast.CommentGroup, prefix string) (string, bool) {
	if doc == nil {
		return "", false
	}
	for _, c := range doc.List {
		text := strings.TrimPrefix(c.Text, "//")
		if rest, ok := strings.CutPrefix(text, prefix); ok {
			return strings.TrimSpace(rest), true
		}
	}
	return "", false
}

// directiveLines finds every `//<prefix> rest` in a comment group, in
// source order; directives like //amr:par may repeat.
func directiveLines(doc *ast.CommentGroup, prefix string) []string {
	if doc == nil {
		return nil
	}
	var out []string
	for _, c := range doc.List {
		text := strings.TrimPrefix(c.Text, "//")
		if rest, ok := strings.CutPrefix(text, prefix); ok {
			out = append(out, strings.TrimSpace(rest))
		}
	}
	return out
}

// baseTypeName strips pointers and package qualifiers from a type
// expression, returning the bare type name.
func baseTypeName(t ast.Expr) string {
	switch t := ast.Unparen(t).(type) {
	case *ast.Ident:
		return t.Name
	case *ast.SelectorExpr:
		return t.Sel.Name
	case *ast.StarExpr:
		return baseTypeName(t.X)
	}
	return ""
}

// graphs extracts one Graph per driver anchored in the package,
// reporting directive conflicts through the pass.
func (ex *extractor) graphs() []*Graph {
	byDriver := make(map[string][]graphAnchor)
	var drivers []string
	for _, a := range ex.anchors {
		if _, ok := byDriver[a.driver]; !ok {
			drivers = append(drivers, a.driver)
		}
		byDriver[a.driver] = append(byDriver[a.driver], a)
	}
	sort.Strings(drivers)

	var out []*Graph
	for _, driver := range drivers {
		anchors := byDriver[driver]
		sort.SliceStable(anchors, func(i, j int) bool { return anchors[i].seq < anchors[j].seq })
		for i := 1; i < len(anchors); i++ {
			if anchors[i].seq == anchors[i-1].seq {
				ex.pass.Reportf(anchors[i].fd.Pos(),
					"duplicate //amr:graph seq=%d for driver %s (phases %s and %s): pipeline order is ambiguous",
					anchors[i].seq, driver, anchors[i-1].phase, anchors[i].phase)
			}
		}
		g := newGraph(driver)
		for _, a := range anchors {
			g.Phases = append(g.Phases, Phase{Name: a.phase, Seq: a.seq})
			for _, p := range a.pars {
				p.Phase = a.phase
				g.pars = append(g.pars, p)
			}
			w := &gwalker{
				ex: ex, g: g, phase: a.phase,
				env:   make(map[types.Object]symval),
				chain: &chainState{seen: make(map[string]bool)},
			}
			w.bindSignature(a.fd, nil, nil)
			w.walkBody(a.fd.Body.List)
		}
		g.finalize(ex.pass)
		out = append(out, g)
	}
	return out
}

// sendOps and recvOps are the point-to-point entry points across the
// mpi, tampi and comm layers; peer and tag are the last two arguments
// of every one of them.
var sendOps = map[string]bool{"Send": true, "SendOwned": true, "Isend": true, "IsendOwned": true}
var recvOps = map[string]bool{"Recv": true, "Irecv": true}

// builtin conversions and the slice builtins the walker interprets.
var passthroughConvs = map[string]bool{
	"int": true, "int8": true, "int16": true, "int32": true, "int64": true,
	"uint": true, "uint8": true, "uint16": true, "uint32": true, "uint64": true,
	"uintptr": true, "float32": true, "float64": true, "byte": true, "rune": true,
	"string": true, "any": true,
}

// chainState threads standalone-node ordering and dedup through inline
// walks of one anchored function.
type chainState struct {
	last *Node           // previous standalone node, for seq chaining
	seen map[string]bool // standalone-node dedup within the phase
}

// gwalker walks one anchored function (and its inlined callees) with a
// single mutable environment, attaching events to the graph.
type gwalker struct {
	ex    *extractor
	g     *Graph
	phase string
	env   map[types.Object]symval
	cur   *Node // task node under construction, nil outside Spawn closures

	stack []*ast.FuncDecl // inline cycle guard
	chain *chainState
}

// bindSignature binds a function's receiver and parameters. With nil
// vals the parameters become free atoms named after themselves (anchored
// entry); with vals they bind to the caller's evaluated arguments
// (inline walk).
func (w *gwalker) bindSignature(fd *ast.FuncDecl, recvVal symval, vals []symval) {
	if fd.Recv != nil && len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
		if recvVal == nil {
			recvVal = &symAtom{name: ""}
		}
		if obj := w.ex.pass.objOf(fd.Recv.List[0].Names[0]); obj != nil {
			w.env[obj] = recvVal
		}
	}
	idx := 0
	for _, field := range fd.Type.Params.List {
		names := field.Names
		if len(names) == 0 {
			idx++
			continue
		}
		for _, name := range names {
			var v symval
			if vals != nil && idx < len(vals) {
				v = vals[idx]
			} else {
				v = &symAtom{name: name.Name}
			}
			if obj := w.ex.pass.objOf(name); obj != nil && name.Name != "_" {
				w.env[obj] = v
			}
			idx++
		}
	}
}

func (w *gwalker) walkBody(list []ast.Stmt) {
	for _, s := range list {
		w.walkStmt(s)
	}
}

func (w *gwalker) walkStmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		vals := make([]symval, len(s.Rhs))
		for i, r := range s.Rhs {
			vals[i] = w.eval(r)
		}
		if s.Tok != token.ASSIGN && s.Tok != token.DEFINE {
			return // op-assign: keep the old binding rather than grow terms
		}
		for i, l := range s.Lhs {
			v := vals[0]
			if len(s.Lhs) == len(s.Rhs) {
				v = vals[i]
			}
			w.assign(l, v)
		}
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			vals := make([]symval, len(vs.Values))
			for i, v := range vs.Values {
				vals[i] = w.eval(v)
			}
			for i, name := range vs.Names {
				var v symval
				switch {
				case i < len(vals):
					v = vals[i]
				case isSliceType(vs.Type):
					v = &symSlice{}
				default:
					v = &symAtom{name: name.Name}
				}
				w.assign(name, v)
			}
		}
	case *ast.IfStmt:
		if s.Init != nil {
			w.walkStmt(s.Init)
		}
		w.eval(s.Cond)
		w.walkBody(s.Body.List)
		if s.Else != nil {
			w.walkStmt(s.Else)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			if a, ok := s.Init.(*ast.AssignStmt); ok && a.Tok == token.DEFINE {
				for _, l := range a.Lhs {
					if id, ok := ast.Unparen(l).(*ast.Ident); ok {
						w.assign(id, &symAtom{name: "$" + id.Name})
					}
				}
			} else {
				w.walkStmt(s.Init)
			}
		}
		if s.Cond != nil {
			w.eval(s.Cond)
		}
		if s.Post != nil {
			w.walkStmt(s.Post)
		}
		w.walkBody(s.Body.List)
	case *ast.RangeStmt:
		src := w.eval(s.X)
		if s.Key != nil {
			w.assign(s.Key, &symAtom{name: "$" + headName(s.X)})
		}
		if s.Value != nil {
			w.assign(s.Value, elemOf(src))
		}
		w.walkBody(s.Body.List)
	case *ast.ExprStmt:
		w.eval(s.X)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.eval(r)
		}
	case *ast.BlockStmt:
		w.walkBody(s.List)
	case *ast.DeferStmt:
		w.eval(s.Call)
	case *ast.GoStmt:
		w.eval(s.Call)
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init)
		}
		if s.Tag != nil {
			w.eval(s.Tag)
		}
		for _, cl := range s.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					w.eval(e)
				}
				w.walkBody(cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init)
		}
		for _, cl := range s.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				w.walkBody(cc.Body)
			}
		}
	case *ast.SelectStmt:
		for _, cl := range s.Body.List {
			if cc, ok := cl.(*ast.CommClause); ok {
				if cc.Comm != nil {
					w.walkStmt(cc.Comm)
				}
				w.walkBody(cc.Body)
			}
		}
	case *ast.IncDecStmt:
		w.eval(s.X)
	case *ast.SendStmt:
		w.eval(s.Chan)
		w.eval(s.Value)
	case *ast.LabeledStmt:
		w.walkStmt(s.Stmt)
	}
}

// assign binds one assignment target. Index assignment into a tracked
// slice joins the value into the slice's element abstraction.
func (w *gwalker) assign(lhs ast.Expr, v symval) {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if lhs.Name == "_" {
			return
		}
		if obj := w.ex.pass.objOf(lhs); obj != nil {
			w.env[obj] = v
		}
	case *ast.IndexExpr:
		id, ok := ast.Unparen(lhs.X).(*ast.Ident)
		if !ok {
			return
		}
		obj := w.ex.pass.objOf(id)
		if obj == nil {
			return
		}
		if sl, ok := w.env[obj].(*symSlice); ok {
			w.env[obj] = &symSlice{elem: joinVals(sl.elem, v)}
		}
	}
}

func isSliceType(t ast.Expr) bool {
	_, ok := ast.Unparen(t).(*ast.ArrayType)
	return ok
}

// headName names a range source for loop-variable atoms: the trailing
// identifier of the expression.
func headName(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.IndexExpr:
		return headName(e.X)
	case *ast.CallExpr:
		return calleeName(e)
	}
	return "range"
}

// elemOf is the term for one element of a collection term.
func elemOf(v symval) symval {
	if sl, ok := v.(*symSlice); ok && sl.elem != nil {
		return sl.elem
	}
	return &symIndex{x: v}
}

// eval reduces an expression to its symbolic value, emitting graph
// events for any calls it contains.
func (w *gwalker) eval(e ast.Expr) symval {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		switch e.Name {
		case "true", "false", "nil":
			return &symLit{text: e.Name}
		}
		if obj := w.ex.pass.objOf(e); obj != nil {
			if v, ok := w.env[obj]; ok {
				return v
			}
		}
		return &symAtom{name: e.Name}
	case *ast.SelectorExpr:
		x := w.eval(e.X)
		if st, ok := x.(*symStruct); ok {
			if v, ok := st.fields[e.Sel.Name]; ok {
				return v
			}
			// A promoted field of an embedded struct: render it through
			// the type class so both protocol sides converge.
			return &symField{x: &symAtom{name: st.info.name}, name: e.Sel.Name}
		}
		return &symField{x: x, name: e.Sel.Name}
	case *ast.IndexExpr:
		w.eval(e.Index)
		return elemOf(w.eval(e.X))
	case *ast.SliceExpr:
		if e.Low != nil {
			w.eval(e.Low)
		}
		if e.High != nil {
			w.eval(e.High)
		}
		return w.eval(e.X)
	case *ast.StarExpr:
		return w.eval(e.X)
	case *ast.UnaryExpr:
		x := w.eval(e.X)
		if e.Op == token.AND || e.Op == token.MUL {
			return x
		}
		return &symBin{op: e.Op.String(), x: &symLit{}, y: x}
	case *ast.BinaryExpr:
		return &symBin{op: e.Op.String(), x: w.eval(e.X), y: w.eval(e.Y)}
	case *ast.BasicLit:
		return &symLit{text: e.Value}
	case *ast.CompositeLit:
		return w.evalComposite(e)
	case *ast.CallExpr:
		return w.walkCall(e)
	case *ast.TypeAssertExpr:
		return w.eval(e.X)
	case *ast.FuncLit:
		return &symLit{text: "func"}
	case nil:
		return &symLit{text: "?"}
	default:
		return &symLit{text: render(w.ex.pass.Fset, e)}
	}
}

func (w *gwalker) evalComposite(e *ast.CompositeLit) symval {
	if _, ok := ast.Unparen(e.Type).(*ast.ArrayType); ok || e.Type == nil {
		sl := &symSlice{}
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			sl.elem = joinVals(sl.elem, w.eval(elt))
		}
		return sl
	}
	if info, ok := w.ex.structs[baseTypeName(e.Type)]; ok {
		st := &symStruct{info: info, fields: make(map[string]symval)}
		for i, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				if id, ok := kv.Key.(*ast.Ident); ok {
					st.fields[id.Name] = w.eval(kv.Value)
				}
				continue
			}
			if i < len(info.fields) {
				st.fields[info.fields[i].name] = w.eval(elt)
			}
		}
		return st
	}
	for _, elt := range e.Elts { // events inside an opaque literal still count
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			elt = kv.Value
		}
		w.eval(elt)
	}
	return &symLit{text: render(w.ex.pass.Fset, e)}
}

// walkCall classifies one call: graph events by name first, then
// in-package inlining, then the uninterpreted default.
func (w *gwalker) walkCall(call *ast.CallExpr) symval {
	name := calleeName(call)
	_, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)

	switch {
	case name == "Spawn" && isSel && len(call.Args) >= 2:
		if fl, ok := ast.Unparen(call.Args[1]).(*ast.FuncLit); ok {
			w.handleSpawn(call, fl)
			return &symLit{text: "task"}
		}
	case (sendOps[name] || recvOps[name]) && isSel && len(call.Args) >= 2:
		kind := "send"
		if recvOps[name] {
			kind = "recv"
		}
		vals := w.evalArgs(call)
		w.emitComm(kind, name, call, vals[len(vals)-2], vals[len(vals)-1])
		return &symCall{name: name, args: vals}
	case isCollectiveName(name) && isSel:
		vals := w.evalArgs(call)
		w.emitStandalone(name, "collective", call.Pos(), key("collective", name, renderArgs(vals)))
		return &symCall{name: name, args: vals}
	case name == "WaitKeys" && isSel:
		accs := w.waitAccesses(call)
		var renders []string
		for _, a := range accs {
			renders = append(renders, a.Region)
		}
		if n := w.emitStandalone("WaitKeys", "wait", call.Pos(), key("wait", "WaitKeys", strings.Join(renders, ","))); n != nil {
			n.Accesses = accs
		}
		return &symCall{name: name}
	case name == "make":
		if len(call.Args) > 0 && isSliceType(call.Args[0]) {
			return &symSlice{}
		}
		return &symCall{name: name}
	case name == "append" && len(call.Args) >= 1:
		base := w.eval(call.Args[0])
		sl, ok := base.(*symSlice)
		if !ok {
			sl = &symSlice{}
		}
		elem := sl.elem
		for _, a := range call.Args[1:] {
			v := w.eval(a)
			if call.Ellipsis.IsValid() && a == call.Args[len(call.Args)-1] {
				v = elemOf(v)
			}
			elem = joinVals(elem, v)
		}
		return &symSlice{elem: elem}
	case passthroughConvs[name] && len(call.Args) == 1 && !isSel:
		return w.eval(call.Args[0])
	}

	if fd := w.resolve(call); fd != nil && len(w.stack) < maxInlineDepth && !w.inStack(fd) {
		return w.inline(call, fd)
	}

	// Uninterpreted call: evaluate the arguments for events, and walk
	// closure arguments in the current environment — rec.Span-style
	// wrappers execute their body in place.
	var vals []symval
	for _, a := range call.Args {
		if fl, ok := ast.Unparen(a).(*ast.FuncLit); ok {
			w.walkBody(fl.Body.List)
			vals = append(vals, &symLit{text: "func"})
			continue
		}
		vals = append(vals, w.eval(a))
	}
	return &symCall{name: name, args: vals}
}

func (w *gwalker) evalArgs(call *ast.CallExpr) []symval {
	vals := make([]symval, len(call.Args))
	for i, a := range call.Args {
		vals[i] = w.eval(a)
	}
	return vals
}

func renderArgs(vals []symval) string {
	var parts []string
	for _, v := range vals {
		parts = append(parts, renderVal(v))
	}
	return strings.Join(parts, ",")
}

func key(parts ...string) string { return strings.Join(parts, "\x00") }

// resolve finds the in-package FuncDecl a call targets: through the
// type-check when it resolved the callee, by unique bare name otherwise
// (the tolerant loader cannot resolve method selectors on fields whose
// types failed to import).
func (w *gwalker) resolve(call *ast.CallExpr) *ast.FuncDecl {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	if obj := w.ex.pass.objOf(id); obj != nil {
		if fd, ok := w.ex.byObj[obj]; ok {
			return fd
		}
		return nil // resolved to something that is not an in-package func
	}
	if fd, ok := w.ex.byName[id.Name]; ok {
		return fd // nil when ambiguous, which callers treat as unresolved
	}
	return nil
}

func (w *gwalker) inStack(fd *ast.FuncDecl) bool {
	for _, f := range w.stack {
		if f == fd {
			return true
		}
	}
	return false
}

// inline walks a resolved callee with the caller's evaluated arguments.
// Single-expression accessors reduce to their returned term; everything
// else is walked for events and summarised as an uninterpreted call.
func (w *gwalker) inline(call *ast.CallExpr, fd *ast.FuncDecl) symval {
	var recvVal symval
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && fd.Recv != nil {
		recvVal = w.eval(sel.X)
	}
	vals := w.evalArgs(call)
	if info := w.ex.regions[fd]; info != nil {
		st := &symStruct{info: info, fields: make(map[string]symval)}
		for i, f := range info.fields {
			if i < len(vals) {
				st.fields[f.name] = vals[i]
			}
		}
		return st
	}

	sub := &gwalker{
		ex: w.ex, g: w.g, phase: w.phase, cur: w.cur,
		env:   make(map[types.Object]symval),
		stack: append(w.stack, fd),
		chain: w.chain,
	}
	sub.bindSignature(fd, recvVal, vals)

	// A one-statement accessor (func f(...) T { return expr }) reduces
	// to its return value so key helpers stay transparent.
	if len(fd.Body.List) == 1 {
		if ret, ok := fd.Body.List[0].(*ast.ReturnStmt); ok && len(ret.Results) == 1 {
			return sub.eval(ret.Results[0])
		}
	}
	sub.walkBody(fd.Body.List)
	return &symCall{name: fd.Name.Name, args: vals}
}

// handleSpawn materialises one task node from a task.Spawn call.
func (w *gwalker) handleSpawn(call *ast.CallExpr, body *ast.FuncLit) {
	label := "task"
	if lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit); ok {
		if s, err := strconv.Unquote(lit.Value); err == nil {
			s = strings.TrimSpace(s)
			if s != "" {
				label = s
			}
		}
	}
	node := w.g.addNode(w.phase, label, "task", call.Pos())
	w.parseDeps(node, call.Args[2:])

	prev := w.cur
	w.cur = node
	w.walkBody(body.Body.List)
	w.cur = prev
}

// parseDeps interprets the access-list arguments of a Spawn call —
// task.In/Out/InOut key lists, task.Merge combinations — into region
// accesses, symbolically where deplint's collectAccesses gives up:
// spread slices contribute their element term with the Many flag.
func (w *gwalker) parseDeps(node *Node, args []ast.Expr) {
	for _, arg := range args {
		call, ok := ast.Unparen(arg).(*ast.CallExpr)
		if !ok {
			node.Unknown = true // a bare []Access value; keys unknown
			continue
		}
		name := calleeName(call)
		switch name {
		case "In", "Out", "InOut":
			mode := map[string]string{"In": "in", "Out": "out", "InOut": "inout"}[name]
			if call.Ellipsis.IsValid() {
				v := w.eval(call.Args[len(call.Args)-1])
				elem := elemOf(v)
				node.Accesses = append(node.Accesses, RegAccess{
					Mode: mode, Region: renderVal(elem), Many: true,
					val: elem, pos: call.Pos(),
				})
				continue
			}
			for _, keyExpr := range call.Args {
				v := w.eval(keyExpr)
				node.Accesses = append(node.Accesses, RegAccess{
					Mode: mode, Region: renderVal(v),
					val: v, pos: keyExpr.Pos(),
				})
			}
		case "Merge":
			w.parseDeps(node, call.Args)
		default:
			node.Unknown = true
		}
	}
}

// waitAccesses interprets WaitKeys arguments as read accesses.
func (w *gwalker) waitAccesses(call *ast.CallExpr) []RegAccess {
	var accs []RegAccess
	for i, arg := range call.Args {
		v := w.eval(arg)
		many := false
		if call.Ellipsis.IsValid() && i == len(call.Args)-1 {
			v = elemOf(v)
			many = true
		}
		accs = append(accs, RegAccess{
			Mode: "in", Region: renderVal(v), Many: many,
			val: v, pos: arg.Pos(),
		})
	}
	return accs
}

// emitComm records a point-to-point event: on the task under
// construction when inside a Spawn closure, as a standalone chained
// node otherwise.
func (w *gwalker) emitComm(kind, op string, call *ast.CallExpr, peer, tag symval) {
	ev := CommEvent{
		Kind: kind, Op: op,
		Peer: renderVal(peer), Tag: renderVal(tag),
		peerVal: peer, tagVal: tag, pos: call.Pos(),
	}
	if w.cur != nil {
		for _, have := range w.cur.Comm {
			if have.Kind == ev.Kind && have.Op == ev.Op && have.Peer == ev.Peer && have.Tag == ev.Tag {
				return
			}
		}
		w.cur.Comm = append(w.cur.Comm, ev)
		return
	}
	if n := w.emitStandalone(op, kind, call.Pos(), key(kind, op, ev.Peer, ev.Tag)); n != nil {
		n.Comm = append(n.Comm, ev)
	}
}

// emitStandalone adds one deduplicated non-task node and chains it to
// the previous standalone node of the phase in program order.
func (w *gwalker) emitStandalone(label, kind string, pos token.Pos, dedup string) *Node {
	full := w.phase + "\x00" + dedup
	if w.chain.seen[full] {
		return nil
	}
	w.chain.seen[full] = true
	n := w.g.addNode(w.phase, label, kind, pos)
	if w.chain.last != nil && w.chain.last.Phase == w.phase {
		w.g.Edges = append(w.g.Edges, Edge{From: w.chain.last.ID, To: n.ID, Kind: "seq"})
	}
	w.chain.last = n
	return n
}
