package main

import (
	"testing"

	"dui/internal/exampletest"
)

func TestHeadline(t *testing.T) {
	exampletest.Headline(t, main, "  hijacked_packets              44722.000")
}
