package webscript

import "fmt"

// The AST interpreter: the reference that compiled execution (Compile +
// ExecuteOps) is held equal to. It walks the parsed statements and resolves
// each feature by its interface and member strings at dispatch time.

// host receives the effects of interpreting WebScript statements.
type host interface {
	// Invoke calls the method feature count times.
	Invoke(iface, member string, count int) error
	// SetProperty writes the property feature once.
	SetProperty(iface, member string) error
	// Navigate attempts a navigation to path.
	Navigate(path string)
}

// execute runs a statement list against a host, stopping at the first
// error (an unknown feature is the analog of a JavaScript ReferenceError).
func execute(stmts []Stmt, h host) error {
	for _, st := range stmts {
		switch s := st.(type) {
		case Invoke:
			if err := h.Invoke(s.Interface, s.Member, s.Count); err != nil {
				return err
			}
		case SetProp:
			if err := h.SetProperty(s.Interface, s.Member); err != nil {
				return err
			}
		case Navigate:
			h.Navigate(s.Path)
		default:
			return fmt.Errorf("webscript: unknown statement type %T", st)
		}
	}
	return nil
}
