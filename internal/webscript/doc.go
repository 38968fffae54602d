// Package webscript defines WebScript, the scripting DSL the synthetic web's
// pages are written in. WebScript is the reproduction's stand-in for
// JavaScript: its statements invoke Web API features through the browser's
// prototype dispatch layer, so the measuring extension's prototype shims and
// singleton property watchpoints observe WebScript programs exactly as the
// paper's extension observes JavaScript (§4.2).
//
// The language:
//
//	invoke Document.createElement 3;       // call a method 3 times
//	set Window.name;                       // write a property
//	navigate "/products";                  // attempt a navigation
//	on load { ... }                        // run when the page finishes loading
//	on click "#menu" { ... }               // run when #menu is clicked
//	on click { ... }                       // run on any click
//	on scroll { ... }                      // run when the page scrolls
//	on input "#search" { ... }             // run on text entry
//	on timer 5 { ... }                     // run every 5 virtual seconds
//
// Feature references use "Interface.member" shorthand for the corpus name
// "Interface.prototype.member".
//
// Scripts execute in compiled form. Compile translates a parsed Script once
// into flat op lists ([]Op) whose operands are integer references interned
// through a RefInterner, and ExecuteOps replays them against an OpHost — the
// browser's hot path, where the same script runs thousands of times per
// survey. A failing statement aborts its block; earlier effects stand.
// Compile returns nil only for hand-built ASTs holding statement types it
// does not know; the browser records that as a script error.
//
// The AST interpreter that walks []Stmt and resolves interface and member
// strings per statement is a test-only reference (interp_test.go).
// TestCompiledScriptMatchesInterpreter holds compiled execution equal to it
// over every script of a synthetic web, and FuzzCompileMatchesInterpreter
// over arbitrary parser output.
package webscript
