#!/bin/sh
# check-docs-links.sh verifies that every relative markdown link in README.md
# and docs/*.md (every markdown file in docs/, including ones added by new
# PRs) resolves to an existing file, and that every intra-doc anchor —
# "#section" within a file or "other.md#section" across files — names a real
# heading in its target. Absolute http(s) URLs are skipped. It also checks
# that every *.md file a Go comment names exists, so a deleted or renamed
# document cannot leave "see DESIGN.md" behind in the code. Exits non-zero
# listing the broken links.
set -eu

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

# anchors_of prints the GitHub-style anchor slug of every heading in a
# markdown file: lowercase, punctuation stripped, spaces to hyphens.
anchors_of() {
	grep -E '^#{1,6} ' "$1" | sed -E 's/^#+ +//; s/[[:space:]]+$//' |
		tr '[:upper:]' '[:lower:]' |
		sed -E 's/[^a-z0-9 _-]//g; s/ /-/g'
}

# has_anchor target frag: does the markdown file contain the anchor? A
# trailing -N disambiguates duplicate headings on GitHub, so the bare slug is
# accepted for it too.
has_anchor() {
	base=$(printf '%s' "$2" | sed -E 's/-[0-9]+$//')
	anchors_of "$1" | grep -qx -e "$2" -e "$base"
}

for f in README.md docs/*.md; do
	dir=$(dirname "$f")
	grep -oE '\]\([^)]+\)' "$f" | sed 's/^](//; s/)$//' | while IFS= read -r link; do
		case "$link" in
		http://* | https://* | mailto:*) continue ;;
		esac
		target=${link%%#*}
		frag=""
		case "$link" in
		*"#"*) frag=${link#*#} ;;
		esac
		# Resolve the link target: same file for pure-anchor links, else
		# relative to the linking file (with a repo-root fallback).
		resolved=""
		if [ -z "$target" ]; then
			resolved=$f
		elif [ -e "$dir/$target" ]; then
			resolved="$dir/$target"
		elif [ -e "$target" ]; then
			resolved=$target
		else
			echo "$f: broken link: $link" >&2
			echo "$f: $link" >>"$tmp"
			continue
		fi
		# Anchor check, for anchors into markdown files only.
		if [ -n "$frag" ]; then
			case "$resolved" in
			*.md)
				if ! has_anchor "$resolved" "$frag"; then
					echo "$f: broken anchor: $link (no heading #$frag in $resolved)" >&2
					echo "$f: $link" >>"$tmp"
				fi
				;;
			esac
		fi
	done
done

# Required docs: the documentation set core workflows point at. A rename or
# deletion must update this list (and every inbound link) deliberately.
for required in docs/ARCHITECTURE.md docs/API.md docs/FORMAT.md \
	docs/OBSERVABILITY.md docs/STATIC_ANALYSIS.md; do
	if [ ! -e "$required" ]; then
		echo "missing required doc: $required" >&2
		echo "missing: $required" >>"$tmp"
	fi
done

# Orphan check: every doc must be reachable — linked by name from README.md
# or from a sibling doc — or nobody will ever find it.
for f in docs/*.md; do
	name=$(basename "$f")
	if ! grep -l "$name" README.md docs/*.md | grep -qv "^$f\$"; then
		echo "orphaned doc: $f is linked from nowhere" >&2
		echo "orphan: $f" >>"$tmp"
	fi
done

# Go comments: a *.md a comment names must exist — as the path written
# (from the repo root or the file's own directory) or, for a bare name,
# anywhere in the repo. Only text after a // that no string literal precedes
# counts; testdata fixtures are not ours to police.
mdnames=$(find . -name '*.md' -not -path './.git/*' -not -path './.bench_build/*' | sed 's|.*/||' | sort -u)
find . -name '*.go' -not -path './.git/*' -not -path './.bench_build/*' -not -path '*/testdata/*' |
	while IFS= read -r gofile; do
		sed -n 's|^[^"]*//\(.*\)$|\1|p' "$gofile" |
			grep -oE '[A-Za-z0-9_./-]*[A-Za-z0-9_]\.md' | sort -u |
			while IFS= read -r name; do
				case "$name" in
				*/*) [ -e "$name" ] || [ -e "$(dirname "$gofile")/$name" ] && continue ;;
				*) printf '%s\n' "$mdnames" | grep -qxF "$name" && continue ;;
				esac
				echo "$gofile: comment names $name, which does not exist" >&2
				echo "$gofile: $name" >>"$tmp"
			done
	done

if [ -s "$tmp" ]; then
	echo "broken documentation links found" >&2
	exit 1
fi
echo "all documentation links and anchors resolve"
