package main

import (
	"testing"

	"dui/internal/exampletest"
)

func TestHeadline(t *testing.T) {
	exampletest.Headline(t, main, "NetHide (density cap 30): accuracy 0.979, utility 0.983, max density 32 -> 30")
}
