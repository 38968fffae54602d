// Package browser implements the instrumented browser of the paper's §4:
// a page-load pipeline (fetch → parse → extension injection → script
// execution → event loop) over the simulated DOM, Web API dispatch layer,
// and WebScript engine.
//
// Extensions hook two points, mirroring the WebExtension surface the paper
// relies on: OnBeforeRequest may veto subresource fetches (how AdBlock Plus
// and Ghostery block), and OnDOMReady runs after the DOM exists but before
// any page script — the injection point "at the beginning of the <head>
// element" the measuring extension uses (§4.2).
//
// # The revisit fast path
//
// The survey loads every page of every site once per case per round, so the
// same URL is loaded dozens of times per crawl worker. Load is built around
// that revisit pattern; these mechanisms make a repeat load allocate almost
// nothing. The caches — templates, compiled scripts, the dispatch table and
// the URL memos — live in a Cache shared by the browsers built over it
// (Cache.NewBrowser; a crawl worker builds one per case, New one with a cache
// of its own); the page and runtime pools stay per browser, because a pooled
// runtime carries its browser's extension shims. Cached entries depend only
// on the URL or source text, never on the browser that filled them, so any
// browser's first load serves every other browser's repeat load:
//
//   - DOM template cache. The first load of a URL parses the document once
//     into a frozen dom.Template; every load — including the first — then
//     arena-clones the template (two slab allocations per page, attribute
//     maps shared copy-on-write) instead of re-fetching and re-parsing.
//     Clones are fully independent: mutating one page's tree, Hidden flags,
//     or attributes never leaks into the template or another page.
//     Templates and parsed scripts live in LRU caches, so a hot cross-site
//     script is never dropped mid-survey.
//
//   - Page/Runtime pooling. Browser.Release(page) returns a finished page
//     and its webapi.Runtime to per-Browser sync.Pools. The page is reset
//     field by field (slices keep their capacity); the runtime keeps its
//     patches and watchpoints but zeroes its per-page counters
//     (webapi.Runtime.ResetCounts), so the next load skips re-shimming the
//     whole corpus. Release is safe once the caller has drained everything
//     it needs from the page (measurer counts taken, navigation attempts
//     copied out); after Release the page must not be touched or Released
//     again — like any pooled object, a stale second Release is only
//     harmless while the page has not been reissued by a Load. Releasing
//     nil or a page of another browser is a no-op.
//
//   - Precompiled selectors. Handler selectors compile once per bound
//     handler at install time (never per event dispatch), blocking
//     extensions compile each hide rule once per profile, and the page
//     caches its Interactive/FormFields lists, invalidated by the DOM's
//     mutation generation (dom.Node.Gen).
//
//   - Compiled script dispatch. Script-cache entries carry the compiled
//     form of the parsed script (webscript.Compile): every statement's
//     "Interface.member" reference is interned once into the cache's
//     webapi.DispatchTable, so executing a statement indexes a published
//     []webapi.Dispatch — with the feature pointer and any error outcome
//     precomputed — instead of resolving two map-keyed strings per call.
//     Immediate code and handler bodies run through webscript.ExecuteOps,
//     the only way page scripts execute; a script Compile rejects is
//     recorded as a script error.
//
//   - URL-resolution memos. resolveURL is memoized visit-locally on the
//     page and across revisits in a cache LRU, and unambiguous
//     absolute-path references concatenate onto the page origin without
//     touching net/url at all (TestResolveAgainstFastPath pins the fast
//     and slow paths byte for byte).
//
// Correctness contract for the fast path: extensions must not structurally
// add or remove script elements at DOMReady (hiding is fine — script
// execution ignores visibility), and an extension that instruments
// Page.Runtime must mark it via webapi.Runtime.MarkInstrumented and skip
// re-instrumenting a runtime it already owns, because pooled runtimes
// return with shims intact. Both in-tree measurers comply.
//
// Load has one path. Its from-scratch reference — fetch, parse and allocate
// the document, page and runtime per load, with no template cache or pools —
// lives in the package tests as loadReference, and TestSlowPathMatchesFastPath
// holds the two equal on every page of ten synthetic sites under a full
// event sequence. The compiled executor's reference, the AST interpreter,
// lives in internal/webscript's tests.
package browser
