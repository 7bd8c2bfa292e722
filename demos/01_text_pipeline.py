"""Walk a raw Arabic sentence through the text pipeline.

Run from the repository root:  python demos/01_text_pipeline.py
"""

from cbas import bundled_resource_dir, filter_tokens, load_stopwords, normalize, tokenize

sentence = "قَالَ الكاتِبُ إن افتتاح الدورة 23 كان جميلا ."

print("raw sentence:")
print(" ", sentence)

# Tokens are maximal same-class runs: words, digit runs, punctuation runs.
tokens = tokenize(sentence)
print("\ntokens (surface @ position):")
for position, token in enumerate(tokens):
    print(f"  {token!r} @ {position}")

# Normalization strips diacritics and tatweel and folds alef variants;
# note how the diacritics on the first two words disappear.
normalized = [normalize(t) for t in tokens]
print("\nnormalized:")
print(" ", normalized)

# Filtering drops stopwords, digits, and punctuation. What survives, in
# order, is exactly what the co-occurrence window sees.
stopwords = load_stopwords(bundled_resource_dir() / "stopwords.txt")
kept = filter_tokens(normalized, stopwords)
print("\nafter stopword/digit/punctuation filtering:")
print(" ", kept)
print("\ndropped:", [w for w in normalized if w not in kept])
