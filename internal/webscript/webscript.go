package webscript

import (
	"fmt"
	"strconv"
	"strings"
)

// EventType enumerates the interaction events handlers can bind.
type EventType int

const (
	EventLoad EventType = iota
	EventClick
	EventScroll
	EventInput
	EventMove
	EventTimer
)

var eventNames = map[string]EventType{
	"load":   EventLoad,
	"click":  EventClick,
	"scroll": EventScroll,
	"input":  EventInput,
	"move":   EventMove,
	"timer":  EventTimer,
}

// eventNameList is the inverse of eventNames, indexed by EventType. String
// used to range over the map hunting for its value — nondeterministic
// iteration on every call plus a map walk per event registration.
var eventNameList = [...]string{
	EventLoad:   "load",
	EventClick:  "click",
	EventScroll: "scroll",
	EventInput:  "input",
	EventMove:   "move",
	EventTimer:  "timer",
}

// String returns the source-level event name.
func (e EventType) String() string {
	if int(e) >= 0 && int(e) < len(eventNameList) {
		return eventNameList[e]
	}
	return fmt.Sprintf("EventType(%d)", int(e))
}

// Stmt is one executable statement.
type Stmt interface{ isStmt() }

// Invoke calls a Web API method Count times.
type Invoke struct {
	Interface string
	Member    string
	Count     int
}

// SetProp writes a Web API property once.
type SetProp struct {
	Interface string
	Member    string
}

// Navigate attempts to navigate the page to Path.
type Navigate struct {
	Path string
}

func (Invoke) isStmt()   {}
func (SetProp) isStmt()  {}
func (Navigate) isStmt() {}

// Handler is an event-bound statement block.
type Handler struct {
	Event    EventType
	Selector string // optional element filter for click/input
	Interval int    // virtual seconds, for EventTimer
	Body     []Stmt
}

// Script is a parsed WebScript program.
type Script struct {
	// Immediate statements run when the script executes (page load
	// parse time, like top-level JavaScript).
	Immediate []Stmt
	// Handlers are registered against the page's event loop.
	Handlers []*Handler
}

// Error is a WebScript syntax error; the paper notes that sites with syntax
// errors in their JavaScript could not be measured, and the browser
// simulator surfaces this error type for the same purpose.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string {
	return fmt.Sprintf("webscript: line %d: %s", e.Line, e.Msg)
}

// Parse parses a WebScript program.
func Parse(src string) (*Script, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &wsParser{toks: toks}
	s := &Script{}
	for !p.eof() {
		if p.peekText() == "on" {
			h, err := p.parseHandler()
			if err != nil {
				return nil, err
			}
			s.Handlers = append(s.Handlers, h)
			continue
		}
		st, err := p.parseSimpleStmt()
		if err != nil {
			return nil, err
		}
		s.Immediate = append(s.Immediate, st)
	}
	return s, nil
}

// --- lexer ---

type wsTokenKind int

const (
	wsEOF wsTokenKind = iota
	wsIdent
	wsInt
	wsString
	wsPunct
)

type wsToken struct {
	kind wsTokenKind
	text string
	line int
}

func lex(src string) ([]wsToken, error) {
	var toks []wsToken
	line := 1
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == '\n':
			line++
			i++
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '/' && i+1 < len(src) && src[i+1] == '/':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case isWSIdentStart(c):
			start := i
			for i < len(src) && isWSIdentPart(src[i]) {
				i++
			}
			toks = append(toks, wsToken{wsIdent, src[start:i], line})
		case c >= '0' && c <= '9':
			start := i
			for i < len(src) && src[i] >= '0' && src[i] <= '9' {
				i++
			}
			toks = append(toks, wsToken{wsInt, src[start:i], line})
		case c == '"':
			i++
			start := i
			for i < len(src) && src[i] != '"' && src[i] != '\n' {
				i++
			}
			if i >= len(src) || src[i] != '"' {
				return nil, &Error{Line: line, Msg: "unterminated string"}
			}
			toks = append(toks, wsToken{wsString, src[start:i], line})
			i++
		case strings.IndexByte(".;{}", c) >= 0:
			toks = append(toks, wsToken{wsPunct, string(c), line})
			i++
		default:
			return nil, &Error{Line: line, Msg: fmt.Sprintf("unexpected character %q", c)}
		}
	}
	toks = append(toks, wsToken{kind: wsEOF, line: line})
	return toks, nil
}

func isWSIdentStart(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isWSIdentPart(c byte) bool {
	return isWSIdentStart(c) || c >= '0' && c <= '9'
}

// --- parser ---

type wsParser struct {
	toks []wsToken
	pos  int
}

func (p *wsParser) cur() wsToken { return p.toks[p.pos] }
func (p *wsParser) eof() bool    { return p.cur().kind == wsEOF }

func (p *wsParser) peekText() string {
	t := p.cur()
	if t.kind == wsIdent {
		return t.text
	}
	return ""
}

func (p *wsParser) errorf(format string, args ...any) error {
	return &Error{Line: p.cur().line, Msg: fmt.Sprintf(format, args...)}
}

func (p *wsParser) expectPunct(s string) error {
	t := p.cur()
	if t.kind != wsPunct || t.text != s {
		return p.errorf("expected %q, got %q", s, t.text)
	}
	p.pos++
	return nil
}

func (p *wsParser) expectIdent() (string, error) {
	t := p.cur()
	if t.kind != wsIdent {
		return "", p.errorf("expected identifier, got %q", t.text)
	}
	p.pos++
	return t.text, nil
}

// parseFeatureRef parses "Interface.member".
func (p *wsParser) parseFeatureRef() (string, string, error) {
	iface, err := p.expectIdent()
	if err != nil {
		return "", "", err
	}
	if err := p.expectPunct("."); err != nil {
		return "", "", err
	}
	member, err := p.expectIdent()
	if err != nil {
		return "", "", err
	}
	return iface, member, nil
}

func (p *wsParser) parseSimpleStmt() (Stmt, error) {
	kw, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	switch kw {
	case "invoke":
		iface, member, err := p.parseFeatureRef()
		if err != nil {
			return nil, err
		}
		count := 1
		if p.cur().kind == wsInt {
			count, err = strconv.Atoi(p.cur().text)
			if err != nil || count < 1 {
				return nil, p.errorf("bad invoke count %q", p.cur().text)
			}
			p.pos++
		}
		if err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		return Invoke{Interface: iface, Member: member, Count: count}, nil
	case "set":
		iface, member, err := p.parseFeatureRef()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		return SetProp{Interface: iface, Member: member}, nil
	case "navigate":
		t := p.cur()
		if t.kind != wsString {
			return nil, p.errorf("navigate expects a quoted path")
		}
		p.pos++
		if err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		return Navigate{Path: t.text}, nil
	default:
		return nil, p.errorf("unknown statement %q", kw)
	}
}

func (p *wsParser) parseHandler() (*Handler, error) {
	if _, err := p.expectIdent(); err != nil { // "on"
		return nil, err
	}
	evName, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	ev, ok := eventNames[evName]
	if !ok {
		return nil, p.errorf("unknown event %q", evName)
	}
	h := &Handler{Event: ev, Interval: 1}
	switch {
	case ev == EventTimer && p.cur().kind == wsInt:
		h.Interval, _ = strconv.Atoi(p.cur().text)
		if h.Interval < 1 {
			return nil, p.errorf("bad timer interval %q", p.cur().text)
		}
		p.pos++
	case (ev == EventClick || ev == EventInput) && p.cur().kind == wsString:
		h.Selector = p.cur().text
		p.pos++
	}
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.kind == wsPunct && t.text == "}" {
			p.pos++
			break
		}
		if t.kind == wsEOF {
			return nil, p.errorf("unterminated handler body")
		}
		if p.peekText() == "on" {
			return nil, p.errorf("nested handlers are not supported")
		}
		st, err := p.parseSimpleStmt()
		if err != nil {
			return nil, err
		}
		h.Body = append(h.Body, st)
	}
	return h, nil
}

// --- serialization (used by the synthetic-web generator) ---

// Format renders a script back to WebScript source.
func Format(s *Script) string {
	var b strings.Builder
	for _, st := range s.Immediate {
		formatStmt(&b, st, "")
	}
	for _, h := range s.Handlers {
		b.WriteString("on " + h.Event.String())
		switch {
		case h.Event == EventTimer:
			fmt.Fprintf(&b, " %d", h.Interval)
		case h.Selector != "":
			fmt.Fprintf(&b, " %q", h.Selector)
		}
		b.WriteString(" {\n")
		for _, st := range h.Body {
			formatStmt(&b, st, "  ")
		}
		b.WriteString("}\n")
	}
	return b.String()
}

func formatStmt(b *strings.Builder, st Stmt, indent string) {
	switch s := st.(type) {
	case Invoke:
		if s.Count == 1 {
			fmt.Fprintf(b, "%sinvoke %s.%s;\n", indent, s.Interface, s.Member)
		} else {
			fmt.Fprintf(b, "%sinvoke %s.%s %d;\n", indent, s.Interface, s.Member, s.Count)
		}
	case SetProp:
		fmt.Fprintf(b, "%sset %s.%s;\n", indent, s.Interface, s.Member)
	case Navigate:
		fmt.Fprintf(b, "%snavigate %q;\n", indent, s.Path)
	}
}
