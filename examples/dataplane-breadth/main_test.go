package main

import (
	"testing"

	"dui/internal/exampletest"
)

func TestHeadline(t *testing.T) {
	exampletest.Headline(t, main, "budget 4, crafted flips: 94% evasion (avg 1.5 bits used)")
}
