// Package synthweb deterministically generates the synthetic Alexa-10k web
// the survey crawls: ranked sites with page trees, first-party application
// scripts, and third-party advertising/tracking scripts, calibrated so that
// dynamically measuring the generated web reproduces the paper's per-standard
// ground truth (Table 2) and aggregate feature-popularity claims (§5.3).
//
// Calibration happens in two stages. The Profile assigns every corpus
// feature a target site count and every (site, standard) pair a party
// attribution (first-party, ad network, tracker, or dual); materialization
// then emits concrete HTML and WebScript whose dynamic behaviour realizes
// the profile. The analysis pipeline only ever sees the crawler's
// measurements — never the profile.
//
// A site is materialized on its first request, its HTML written straight to
// bytes with no DOM in between. A Web keeps the plans of the sites in flight,
// one per pipeline worker, and drops the least recently used; a plan depends
// only on the seed and the site, so a rebuilt one serves the same bytes.
package synthweb
