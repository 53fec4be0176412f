// Package catalogue implements the MathCloud service catalogue: discovery,
// monitoring and annotation of computational web services.  Deployed
// services are published to the catalogue by URI; the catalogue retrieves
// their descriptions through the unified REST API, indexes them, answers
// full-text search queries with highlighted snippets (the paper's "modern
// search engine" interface), periodically pings services to report
// availability, and lets users attach tags (the collaborative Web 2.0
// feature).
package catalogue

import (
	"math"
	"sort"
	"strings"
	"sync"
	"unicode"
)

// Tokenize splits text into lowercase search terms: letter/digit runs, so
// "Hilbert-matrix inversion (N×N)" yields [hilbert matrix inversion n n].
func Tokenize(text string) []string {
	var terms []string
	var b strings.Builder
	flush := func() {
		if b.Len() > 0 {
			terms = append(terms, b.String())
			b.Reset()
		}
	}
	for _, r := range text {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			b.WriteRune(unicode.ToLower(r))
		} else {
			flush()
		}
	}
	flush()
	return terms
}

// index is an inverted index with tf-idf ranking over documents identified
// by string IDs.
type index struct {
	mu sync.RWMutex
	// postings maps a term to the term frequency per document.
	postings map[string]map[string]int
	// docTerms maps a document to its distinct terms, for removal.
	docTerms map[string][]string
	// docLen is the token count per document, for length normalization.
	docLen map[string]int
}

func newIndex() *index {
	return &index{
		postings: make(map[string]map[string]int),
		docTerms: make(map[string][]string),
		docLen:   make(map[string]int),
	}
}

// Add (re)indexes a document.
func (ix *index) Add(docID, text string) {
	terms := Tokenize(text)
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.removeLocked(docID)
	freq := make(map[string]int)
	for _, t := range terms {
		freq[t]++
	}
	distinct := make([]string, 0, len(freq))
	for t, n := range freq {
		m, ok := ix.postings[t]
		if !ok {
			m = make(map[string]int)
			ix.postings[t] = m
		}
		m[docID] = n
		distinct = append(distinct, t)
	}
	ix.docTerms[docID] = distinct
	ix.docLen[docID] = len(terms)
}

// Remove deletes a document from the index.
func (ix *index) Remove(docID string) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.removeLocked(docID)
}

func (ix *index) removeLocked(docID string) {
	for _, t := range ix.docTerms[docID] {
		delete(ix.postings[t], docID)
		if len(ix.postings[t]) == 0 {
			delete(ix.postings, t)
		}
	}
	delete(ix.docTerms, docID)
	delete(ix.docLen, docID)
}

// hit is one ranked search result.
type hit struct {
	DocID string
	Score float64
}

// SearchTop ranks the documents matching the query terms by accumulated
// tf-idf, normalized by document length, and returns the k best (k <= 0
// returns all).  All query terms are optional; documents matching more
// terms score higher because they accumulate more weight.  A bounded
// min-heap selects the top k — O(n log k) instead of fully sorting every
// matching document — so a limit-20 query over a large catalogue does not
// pay for ranking thousands of tail results.
func (ix *index) SearchTop(query string, k int) []hit {
	terms := Tokenize(query)
	if len(terms) == 0 {
		return nil
	}
	ix.mu.RLock()
	n := len(ix.docTerms)
	if n == 0 {
		ix.mu.RUnlock()
		return nil
	}
	scores := make(map[string]float64)
	seen := make(map[string]bool)
	for _, t := range terms {
		if seen[t] {
			continue
		}
		seen[t] = true
		docs, ok := ix.postings[t]
		if !ok {
			continue
		}
		idf := math.Log(1 + float64(n)/float64(len(docs)))
		for docID, tf := range docs {
			norm := 1.0
			if l := ix.docLen[docID]; l > 0 {
				norm = 1 / math.Sqrt(float64(l))
			}
			scores[docID] += (1 + math.Log(float64(tf))) * idf * norm
		}
	}
	ix.mu.RUnlock()

	if k <= 0 || k >= len(scores) {
		hits := make([]hit, 0, len(scores))
		for docID, s := range scores {
			hits = append(hits, hit{DocID: docID, Score: s})
		}
		sort.Slice(hits, func(i, j int) bool { return betterHit(hits[i], hits[j]) })
		return hits
	}

	// Bounded min-heap of the k best hits: the root is the worst retained
	// hit, evicted whenever a better one arrives.
	heap := make([]hit, 0, k)
	for docID, s := range scores {
		h := hit{DocID: docID, Score: s}
		if len(heap) < k {
			heap = append(heap, h)
			siftUp(heap, len(heap)-1)
			continue
		}
		if betterHit(h, heap[0]) {
			heap[0] = h
			siftDown(heap, 0)
		}
	}
	sort.Slice(heap, func(i, j int) bool { return betterHit(heap[i], heap[j]) })
	return heap
}

// betterHit reports whether a ranks above b: higher score first, ties
// broken by document ID for determinism.
func betterHit(a, b hit) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.DocID < b.DocID
}

// siftUp restores the min-heap property (worst hit at the root) after an
// append at index i.
func siftUp(h []hit, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if betterHit(h[parent], h[i]) {
			h[parent], h[i] = h[i], h[parent]
			i = parent
			continue
		}
		break
	}
}

// siftDown restores the min-heap property after replacing the root.
func siftDown(h []hit, i int) {
	for {
		worst := i
		if l := 2*i + 1; l < len(h) && betterHit(h[worst], h[l]) {
			worst = l
		}
		if r := 2*i + 2; r < len(h) && betterHit(h[worst], h[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

// Snippet extracts a window of text around the first occurrence of any
// query term and wraps every query-term occurrence inside the window in
// <b>…</b> markers, mimicking search-engine result snippets.  The text is
// treated as plain text; the caller escapes it for HTML before applying
// the markers (HighlightHTML does both).
func Snippet(text, query string, window int) string {
	if window <= 0 {
		window = 160
	}
	terms := Tokenize(query)
	lower := strings.ToLower(text)
	first := -1
	for _, t := range terms {
		if i := indexToken(lower, t); i >= 0 && (first < 0 || i < first) {
			first = i
		}
	}
	if first < 0 {
		if len(text) <= window {
			return highlight(text, terms)
		}
		return highlight(text[:window], terms) + "..."
	}
	start := first - window/4
	if start < 0 {
		start = 0
	}
	end := start + window
	if end > len(text) {
		end = len(text)
	}
	// Align to rune boundaries.
	for start > 0 && !isBoundary(text[start]) {
		start--
	}
	for end < len(text) && !isBoundary(text[end]) {
		end++
	}
	out := highlight(text[start:end], terms)
	if start > 0 {
		out = "..." + out
	}
	if end < len(text) {
		out += "..."
	}
	return out
}

func isBoundary(b byte) bool { return b < 0x80 || b >= 0xC0 }

// indexToken finds the first whole-token occurrence of term in lower.
func indexToken(lower, term string) int {
	from := 0
	for {
		i := strings.Index(lower[from:], term)
		if i < 0 {
			return -1
		}
		i += from
		beforeOK := i == 0 || !isWordByte(lower[i-1])
		after := i + len(term)
		afterOK := after >= len(lower) || !isWordByte(lower[after])
		if beforeOK && afterOK {
			return i
		}
		from = i + 1
	}
}

func isWordByte(b byte) bool {
	return b >= 'a' && b <= 'z' || b >= '0' && b <= '9' || b >= 'A' && b <= 'Z'
}

// highlight wraps whole-token occurrences of the terms in <b> markers.
func highlight(text string, terms []string) string {
	if len(terms) == 0 {
		return text
	}
	lower := strings.ToLower(text)
	type span struct{ start, end int }
	var spans []span
	for _, t := range terms {
		if t == "" {
			continue
		}
		from := 0
		for {
			rel := indexToken(lower[from:], t)
			if rel < 0 {
				break
			}
			i := from + rel
			spans = append(spans, span{i, i + len(t)})
			from = i + len(t)
		}
	}
	if len(spans) == 0 {
		return text
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	// Merge overlaps.
	merged := spans[:1]
	for _, s := range spans[1:] {
		last := &merged[len(merged)-1]
		if s.start <= last.end {
			if s.end > last.end {
				last.end = s.end
			}
			continue
		}
		merged = append(merged, s)
	}
	var b strings.Builder
	prev := 0
	for _, s := range merged {
		b.WriteString(text[prev:s.start])
		b.WriteString("<b>")
		b.WriteString(text[s.start:s.end])
		b.WriteString("</b>")
		prev = s.end
	}
	b.WriteString(text[prev:])
	return b.String()
}
