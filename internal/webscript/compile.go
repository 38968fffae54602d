package webscript

// Compilation: the crawl executes every cached script hundreds of times
// (immediate statements once per page load, handler bodies once per event or
// timer dispatch), so walking []Stmt interface values with a type switch per
// run is pure overhead. Compile lowers a parsed Script once — at script-cache
// insert — into flat op slices whose feature operands are interned to dense
// IDs by the host (the browsers over one browser.Cache share one string → ID
// table), so
// executing a statement is an index into a dispatch slice instead of a
// map-keyed string lookup. Compiled ops are the only way scripts execute; the
// AST interpreter they replaced lives in this package's tests as the
// reference they are checked against.

// OpKind classifies one compiled statement.
type OpKind uint8

const (
	// OpInvoke calls a method feature Count times.
	OpInvoke OpKind = iota
	// OpSet writes a property feature once.
	OpSet
	// OpNavigate attempts a navigation to Path.
	OpNavigate
)

// Op is one compiled statement. Invoke and Set operands are interned: Ref is
// the dense ID the compiling RefInterner assigned to the statement's
// "Interface.member" reference, and what an ID dispatches to is entirely the
// host's business (the browser resolves each to a webapi feature plus
// precomputed errors).
type Op struct {
	Kind  OpKind
	Ref   int    // interned feature reference (OpInvoke, OpSet)
	Count int    // invocation multiplicity (OpInvoke)
	Path  string // navigation target (OpNavigate)
}

// RefInterner assigns dense IDs to "Interface.member" feature references at
// compile time. Interning the same reference twice must return the same ID.
type RefInterner interface {
	InternRef(iface, member string) int
}

// OpHost executes compiled ops: the effects of the script's statements,
// addressed by interned ref.
type OpHost interface {
	// InvokeRef calls the method behind ref count times.
	InvokeRef(ref, count int) error
	// SetRef writes the property behind ref once.
	SetRef(ref int) error
	// Navigate attempts a navigation to path.
	Navigate(path string)
}

// Compiled is the compile-once form of a Script: the immediate statements
// plus one op block per handler, aligned index-for-index with
// Script.Handlers.
type Compiled struct {
	Immediate []Op
	Bodies    [][]Op
}

// Compile lowers a parsed script through the interner. The result is
// immutable and safe to share across every execution of the cached script.
// It returns nil, a failure, for scripts containing statement types it does
// not know — impossible for parser output (FuzzCompileMatchesInterpreter),
// possible for hand-built ASTs. Callers treat a nil result as a script that
// cannot run.
func Compile(s *Script, in RefInterner) *Compiled {
	imm, ok := CompileStmts(s.Immediate, in)
	if !ok {
		return nil
	}
	c := &Compiled{Immediate: imm}
	if len(s.Handlers) > 0 {
		c.Bodies = make([][]Op, len(s.Handlers))
		for i, h := range s.Handlers {
			body, ok := CompileStmts(h.Body, in)
			if !ok {
				return nil
			}
			c.Bodies[i] = body
		}
	}
	return c
}

// CompileStmts lowers one statement list, reporting ok=false on statement
// types it does not know.
func CompileStmts(stmts []Stmt, in RefInterner) ([]Op, bool) {
	if len(stmts) == 0 {
		return nil, true
	}
	ops := make([]Op, len(stmts))
	for i, st := range stmts {
		switch s := st.(type) {
		case Invoke:
			ops[i] = Op{Kind: OpInvoke, Ref: in.InternRef(s.Interface, s.Member), Count: s.Count}
		case SetProp:
			ops[i] = Op{Kind: OpSet, Ref: in.InternRef(s.Interface, s.Member)}
		case Navigate:
			ops[i] = Op{Kind: OpNavigate, Path: s.Path}
		default:
			return nil, false
		}
	}
	return ops, true
}

// ExecuteOps runs a compiled op block against a host, stopping at the first
// error (an unknown feature is the analog of a JavaScript ReferenceError): a
// failing statement aborts the block, and statements before it keep their
// effects.
func ExecuteOps(ops []Op, h OpHost) error {
	for i := range ops {
		op := &ops[i]
		switch op.Kind {
		case OpInvoke:
			if err := h.InvokeRef(op.Ref, op.Count); err != nil {
				return err
			}
		case OpSet:
			if err := h.SetRef(op.Ref); err != nil {
				return err
			}
		case OpNavigate:
			h.Navigate(op.Path)
		}
	}
	return nil
}
