"""Parse mini-language source into a labeled AST and build a vocabulary.

Walks one small source file through the front end: tokenize/parse, label
normalization (identifiers kept, literals folded to type names), and the
capped frequency vocabulary with its reserved <unk> slot.
"""

from treedefect import build_vocabulary, normalize_labels, parse_mini, preorder

SOURCE = """\
int total = 0;
for (int i = 0; i < 10; i = i + 1) {
  if (isReady(queue)) {
    total = total + pop(queue);
  }
}
log(total);
"""


def show(tree, indent=0):
    print("  " * indent + tree.label)
    for child in tree.children:
        show(child, indent + 1)


def main():
    raw = parse_mini(SOURCE)
    print("== raw AST ==")
    show(raw)

    tree = normalize_labels(raw)
    print("\n== normalized labels (literals become type names) ==")
    show(tree)

    vocab = build_vocabulary([tree], size=12, min_count=1)
    print("\n== vocabulary (capped at 12, most frequent first) ==")
    for index, token in enumerate(vocab.tokens):
        print(f"  {index:2d}  {token}")
    print("\nnode count:", len(preorder(tree)[0]))
    print("out-of-vocabulary tokens map to", vocab.tokens[0])


if __name__ == "__main__":
    main()
