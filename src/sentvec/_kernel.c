/*
 * Native Hogwild training kernel for sentvec.
 *
 * One call of sv_train_chunk trains on a run of sentences of a flat CSR
 * corpus (int32 unigram ids plus int64 sentence offsets).  It does, per
 * sentence, what the numpy reference loop in trainer.py does: hash the
 * n-gram windows, draw the subsampling gate of every token, and for each
 * kept target draw a fresh n-gram dropout and negatives, read the learning
 * rate from the shared progress counter, and take one SGD step on the
 * masked context.  The step mirrors model.train_step (and the L1 prox of
 * model.apply_l1_after_step), which tests use as its oracle.
 *
 * The step's row loops run one vector width per build: 16 floats where the
 * build targets AVX-512F, 8 where it targets AVX and 4 otherwise, then
 * 4-float blocks and single floats for a row's tail.  Every element of a sum
 * adds in the same order at any width, and the dot product keeps eight
 * partial sums at every width, so every build gives the same bits.
 *
 * Workers share the matrices without locks (Hogwild); only the progress
 * counter is updated atomically.  Randomness comes from a per-worker
 * xoshiro256** state owned by the caller.  Python calls this library
 * through ctypes, which releases the interpreter lock for the call.
 *
 * sv_fill_uniform draws the initial source matrix of
 * model.EmbeddingMatrices.initialize: numpy's PCG64 stream, turned into
 * float32 values exactly as Generator.uniform(...).astype(float32) does.
 *
 * sv_embed_text composes sentence vectors for evaluation.embed_batch
 * straight from each line's text: it looks the line's tokens up, hashes the
 * n-grams with the training step's own ngram_row and takes the mean of the
 * rows with sum_rows, which builds every step's context mean.  sv_pair_dots
 * composes the two sides of each similarity pair the same way, one pair at a
 * time into scratch, and returns only their three dots in double, and
 * sv_embed_rows composes each line of sentvec embed into scratch and writes
 * only its text.  sv_format_rows writes float32 rows as the %.6g text of
 * evaluation.RowText, which export-vec and the pair features print; put_row
 * writes each row of both.  It scales each value by a power of ten in
 * double; when the result is clearly away from a rounding tie it builds the
 * six digits in one 64-bit word and stores whole 8-byte words, moving on by
 * the text's true length, and otherwise it calls snprintf, which rounds
 * exactly.  Under AVX-512 it takes those steps for eight values at once, a
 * row's last ones under a load mask, and leaves the values the lanes cannot
 * write to the one-value writer, so the bytes never differ.
 *
 * A byte-string table (sv_table) serves both text paths, and one token
 * scanner splits their lines on the ASCII whitespace of str.split().
 * sv_encode_lines interns the tokens of corpus lines (corpus.encode_corpus);
 * sv_embed_text looks the tokens of the lines it composes up in a table of
 * every word of the model's vocabulary.  Neither knows the non-ASCII
 * whitespace of str.split(): Python hands them a line with a byte >= 0x80
 * as its str.split() tokens joined by spaces.  A vocabulary is passed as its
 * words, each followed by '\n', and the end of each: sv_encoder_words writes
 * the kept words of a corpus in that form, sv_vocab_words the words of a
 * model file's records, and sv_table_new builds the lookup table from it.
 * Wherever eight bytes are readable from a token's start (to the end of its
 * span in sv_embed_text, of the buffer in sv_encode_lines and sv_table_new),
 * its first eight bytes come from one unaligned load masked to its length,
 * and its hash, slot head, capital test and case fold are all computed from
 * that word; a token nearer the end is read a byte at a time.
 *
 * Every float pointer an entry point takes must be 4-byte aligned, except
 * the source matrix of sv_embed_text: a mapped model file places it at
 * any byte offset, so that entry reads it with memcpy loads only.
 */

#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

/* must equal the constants of sentvec.corpus.ngram_hash */
#define FNV_OFFSET_BASIS 2166136261u
#define FNV_PRIME 16777619u
#define NGRAM_CHAIN_MULTIPLIER 116049371u

/* must equal sentvec.model.LR_FLOOR_FRACTION */
#define LR_FLOOR_FRACTION 1e-5

/* 2^ALIAS_COIN_BITS must equal sentvec.sampling.COIN_SCALE */
#define ALIAS_COIN_BITS 53

enum { SV_OK = 0, SV_ONLY_TARGET = 1, SV_NO_MEMORY = 2 };

/* The negative sampler, a Walker alias table (sentvec.sampling.AliasTable);
 * mirrored by sentvec._native.Alias.  Column k yields words[k] when its coin
 * is below threshold[k], else alias[k].  Columns hold distinct words with
 * positive thresholds, so with two or more columns every target leaves a
 * drawable word. */
typedef struct {
    const int32_t *words;
    const int64_t *threshold; /* in [1, 2^ALIAS_COIN_BITS] */
    const int32_t *alias;
    int64_t columns;
} sv_alias;

/* Field order and types are mirrored by sentvec._native.Model. */
typedef struct {
    const int32_t *tokens;    /* CSR unigram ids */
    const int64_t *offsets;   /* sentence s spans tokens[offsets[s]:offsets[s+1]] */
    const double *gate_prob;  /* per word: keep probability if target-eligible, else 0 */
    sv_alias sampler;         /* negative draws */
    float *source;            /* (vocab_size + buckets) x dim */
    float *target;            /* vocab_size x dim */
    int64_t *progress;        /* shared count of processed targets */
    int64_t vocab_size;
    int64_t buckets;
    double base_lr;
    double total_expected;
    double l1_tau;
    int32_t dim;
    int32_t order;
    int32_t dropout_k;
    int32_t negatives;
} sv_model;

/* ---- xoshiro256** (Blackman and Vigna) ---- */

static inline uint64_t rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

static inline uint64_t next_u64(uint64_t *s)
{
    const uint64_t result = rotl(s[1] * 5, 7) * 9;
    const uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl(s[3], 45);
    return result;
}

/* uniform in [0, 1) with 53 random bits */
static inline double next_double(uint64_t *s) { return (double)(next_u64(s) >> 11) * 0x1.0p-53; }

/* uniform in [0, n), unbiased (Lemire's multiply-and-reject) */
static inline uint64_t next_below(uint64_t *s, uint64_t n)
{
    unsigned __int128 m = (unsigned __int128)next_u64(s) * n;
    uint64_t low = (uint64_t)m;
    if (low < n) {
        const uint64_t floor = -n % n;
        while (low < floor) {
            m = (unsigned __int128)next_u64(s) * n;
            low = (uint64_t)m;
        }
    }
    return (uint64_t)(m >> 64);
}

/* ---- numpy's PCG64 (O'Neill's PCG XSL RR 128/64) ---- */

/* numpy's PCG_DEFAULT_MULTIPLIER_128 */
#define PCG_MULTIPLIER ((unsigned __int128)2549297995355413924u << 64 | 4865540595714422341u)

/* the XSL RR output of a state, as numpy's pcg_output_xsl_rr_128_64 */
static inline uint64_t pcg_output(unsigned __int128 s)
{
    const uint64_t hi = (uint64_t)(s >> 64), x = hi ^ (uint64_t)s;
    const unsigned rot = (unsigned)(hi >> 58);
    return (x >> rot) | (x << ((64u - rot) & 63u));
}

/* numpy's random_uniform of the draw of state s, rounded to float32; the int64
 * cast of the 53 bits is exact, and converts in one instruction */
static inline float pcg_uniform(unsigned __int128 s, double low, double range)
{
    return (float)(low + range * ((double)(int64_t)(pcg_output(s) >> 11) * 0x1.0p-53));
}

/* ---- features ---- */

static inline int64_t ngram_count(int64_t len, int32_t order)
{
    int64_t n = 0;
    for (int32_t k = 2; k <= order; k++)
        if (len >= k)
            n += len - k + 1;
    return n;
}

/* The bucket row of the window ids[0:k], hashed as corpus.ngram_hash does */
static inline int64_t ngram_row(const int32_t *ids, int32_t k, int64_t vocab_size, int64_t buckets)
{
    uint32_t h = FNV_OFFSET_BASIS;
    const uint32_t head = (uint32_t)ids[0];
    for (int b = 0; b < 4; b++)
        h = (h ^ ((head >> (8 * b)) & 0xFFu)) * FNV_PRIME;
    for (int32_t j = 1; j < k; j++)
        h = h * NGRAM_CHAIN_MULTIPLIER + (uint32_t)ids[j];
    return vocab_size + (int64_t)(h % (uint64_t)buckets);
}

/* Hashed n-gram rows of one sentence with their inclusive token spans, in
 * the order of corpus.sentence_ngrams: by order, then by window start. */
static int64_t sentence_ngrams(const int32_t *ids, int64_t len, int32_t order, int64_t vocab_size,
                               int64_t buckets, int64_t *grams, int32_t *first, int32_t *last)
{
    int64_t n = 0;
    for (int32_t k = 2; k <= order; k++) {
        for (int64_t i = 0; i + k <= len; i++) {
            grams[n] = ngram_row(ids + i, k, vocab_size, buckets);
            first[n] = (int32_t)i;
            last[n] = (int32_t)(i + k - 1);
            n++;
        }
    }
    return n;
}

/* Feature list with the target at pos held out, in the order of
 * model.masked_context; n-grams flagged in dropped (may be NULL) are left out. */
static int64_t masked_context(const int32_t *ids, int64_t len, int64_t pos, const int64_t *grams,
                              const int32_t *first, const int32_t *last, int64_t n_grams,
                              const uint8_t *dropped, int64_t *ctx)
{
    int64_t n = 0;
    for (int64_t i = 0; i < len; i++)
        if (i != pos)
            ctx[n++] = ids[i];
    for (int64_t g = 0; g < n_grams; g++)
        if ((dropped == NULL || !dropped[g]) && (first[g] > pos || last[g] < pos))
            ctx[n++] = grams[g];
    return n;
}

/* ---- sampling ---- */

/* Positions whose gate draw falls below their word's gate probability;
 * one draw per token, in token order. */
static int64_t gate_positions(const int32_t *ids, int64_t len, const double *gate_prob,
                              uint64_t *rng, int64_t *positions)
{
    int64_t n = 0;
    for (int64_t i = 0; i < len; i++)
        if (next_double(rng) < gate_prob[ids[i]])
            positions[n++] = i;
    return n;
}

/* count draws from the alias table (one uniform column and one coin each),
 * each redrawn while it equals target */
static int draw_negatives(const sv_alias *a, int64_t target, int64_t count, uint64_t *rng,
                          int64_t *out)
{
    if (a->columns == 1 && a->words[0] == target)
        return SV_ONLY_TARGET;
    for (int64_t j = 0; j < count; j++) {
        int64_t word;
        do {
            const uint64_t k = next_below(rng, (uint64_t)a->columns);
            const int64_t coin = (int64_t)(next_u64(rng) >> (64 - ALIAS_COIN_BITS));
            word = coin < a->threshold[k] ? a->words[k] : a->alias[k];
        } while (word == target);
        out[j] = word;
    }
    return SV_OK;
}

/* ---- the SGD step ---- */

/* Explicit lanes fix the summation order in this source, so no -ffast-math is
 * needed to vectorize and every width gives the same bits.  v4f is the
 * baseline instruction set's vector (SSE2 on x86-64) and v8f AVX's.  vf is
 * the widest vector the build targets, the one width of the elementwise row
 * loops: 64 bytes under AVX-512F (-march=native on such a host), 32 under
 * AVX and 16 otherwise.  No vector wider than the target's registers is
 * compiled: GCC would split it. */
typedef float v4f __attribute__((vector_size(16)));

/* four floats from any address, aligned or not */
static inline v4f load4(const void *p)
{
    v4f x;
    memcpy(&x, p, sizeof x);
    return x;
}

#ifdef __AVX__
typedef float v8f __attribute__((vector_size(32)));

static inline v8f load8(const void *p)
{
    v8f x;
    memcpy(&x, p, sizeof x);
    return x;
}
#endif

#if defined(__AVX512F__)
#include <immintrin.h>
typedef float vf __attribute__((vector_size(64)));
#elif defined(__AVX__)
typedef float vf __attribute__((vector_size(32)));
#else
typedef float vf __attribute__((vector_size(16)));
#endif

/* the floats of one vf */
#define VF ((int64_t)(sizeof(vf) / sizeof(float)))

static inline vf loadv(const void *p)
{
    vf x;
    memcpy(&x, p, sizeof x);
    return x;
}

/* Lane k of the partial sums adds the products of elements i = k mod 8 in
 * order; a 4-float tail adds to lanes 0-3, then the lanes are summed in
 * one fixed tree and the last n mod 4 products are added one by one. */
static inline float dot(const float *a, const float *b, int32_t n)
{
    v4f acc0 = {0.0f, 0.0f, 0.0f, 0.0f}, acc1 = acc0;
    int32_t i = 0;
#ifdef __AVX__
    v8f acc8 = {0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f};
    for (; i + 8 <= n; i += 8)
        acc8 += load8(a + i) * load8(b + i);
    memcpy(&acc0, &acc8, sizeof acc0);
    memcpy(&acc1, (const char *)&acc8 + sizeof acc0, sizeof acc1);
#else
    for (; i + 8 <= n; i += 8) {
        acc0 += load4(a + i) * load4(b + i);
        acc1 += load4(a + i + 4) * load4(b + i + 4);
    }
#endif
    if (i + 4 <= n) {
        acc0 += load4(a + i) * load4(b + i);
        i += 4;
    }
    const v4f acc = acc0 + acc1;
    float sum = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for (; i < n; i++)
        sum += a[i] * b[i];
    return sum;
}

/* y += a * x, elementwise, so every width rounds alike */
static inline void add_scaled(float *y, const float *x, float a, int64_t n)
{
    int64_t i = 0;
    for (; i + VF <= n; i += VF) {
        const vf r = loadv(y + i) + a * loadv(x + i);
        memcpy(y + i, &r, sizeof r);
    }
    for (; i + 4 <= n; i += 4) {
        const v4f r = load4(y + i) + a * load4(x + i);
        memcpy(y + i, &r, sizeof r);
    }
    for (; i < n; i++)
        y[i] += a * x[i];
}

/* y[0:n] = the sum of weights[r] * row rows[r] of matrix over r, or, when
 * weights is NULL, the mean of the rows: each element adds the rows in order
 * to +0 and is then divided by n_rows (n_rows >= 1), as IEEE division rounds
 * alike at every width.  Each block of y stays in a register across the rows.
 * matrix is read as bytes: a mapped model file places its rows at any offset. */
static inline void sum_rows(float *y, const char *matrix, const int64_t *rows,
                            const float *weights, int64_t n_rows, int64_t n)
{
    const size_t row_bytes = sizeof(float) * (size_t)n;
    const float count = (float)n_rows;
    int64_t i = 0;
    for (; i + VF <= n; i += VF) {
        vf acc = {0.0f};
        for (int64_t r = 0; r < n_rows; r++) {
            const vf x = loadv(matrix + (size_t)rows[r] * row_bytes + sizeof(float) * (size_t)i);
            acc += weights ? weights[r] * x : x;
        }
        if (!weights)
            acc /= count;
        memcpy(y + i, &acc, sizeof acc);
    }
    for (; i + 4 <= n; i += 4) {
        v4f acc = {0.0f};
        for (int64_t r = 0; r < n_rows; r++) {
            const v4f x = load4(matrix + (size_t)rows[r] * row_bytes + sizeof(float) * (size_t)i);
            acc += weights ? weights[r] * x : x;
        }
        if (!weights)
            acc /= count;
        memcpy(y + i, &acc, sizeof acc);
    }
    for (; i < n; i++) {
        float acc = 0.0f;
        for (int64_t r = 0; r < n_rows; r++) {
            float x;
            memcpy(&x, matrix + (size_t)rows[r] * row_bytes + sizeof(float) * (size_t)i, sizeof x);
            acc += weights ? weights[r] * x : x;
        }
        y[i] = weights ? acc : acc / count;
    }
}

static int compare_i64(const void *a, const void *b)
{
    const int64_t x = *(const int64_t *)a, y = *(const int64_t *)b;
    return (x > y) - (x < y);
}

/* soft-threshold each distinct row of rows[0:n] once; rows is reordered */
static void l1_prox_rows(float *matrix, int32_t dim, int64_t *rows, int64_t n, double threshold)
{
    const float t = (float)threshold;
    qsort(rows, (size_t)n, sizeof(int64_t), compare_i64);
    for (int64_t r = 0; r < n; r++) {
        if (r > 0 && rows[r] == rows[r - 1])
            continue;
        float *row = matrix + rows[r] * dim;
        for (int32_t i = 0; i < dim; i++) {
            const float shrunk = fabsf(row[i]) - t;
            row[i] = shrunk > 0.0f ? copysignf(shrunk, row[i]) : 0.0f;
        }
    }
}

/* Scratch space for sentences of up to max_len tokens. */
typedef struct {
    int64_t *positions; /* max_len: gated target positions */
    int64_t *grams;     /* max_grams: n-gram rows */
    int64_t *perm;      /* max_grams: dropout permutation */
    int64_t *ctx;       /* max_len + max_grams: masked context */
    int64_t *scored;    /* 1 + negatives: target, then negatives */
    int64_t *rows;      /* max(context, 1 + negatives), for the L1 dedupe */
    int32_t *first;     /* max_grams: n-gram span starts */
    int32_t *last;      /* max_grams: n-gram span ends */
    uint8_t *dropped;   /* max_grams: dropout flags, all zero between targets */
    float *v;           /* dim */
    float *grad;        /* dim */
    float *coeff;       /* 1 + negatives */
} workspace;

static void workspace_free(workspace *w)
{
    free(w->positions);
    free(w->first);
    free(w->dropped);
    free(w->v);
}

/* 0 on success; on failure nothing stays allocated */
static int workspace_alloc(workspace *w, const sv_model *m, int64_t max_len)
{
    const int64_t max_grams = ngram_count(max_len, m->order);
    const int64_t max_ctx = max_len + max_grams;
    const int64_t n_scored = 1 + (int64_t)m->negatives;
    const int64_t max_rows = max_ctx > n_scored ? max_ctx : n_scored;
    w->positions = malloc(sizeof(int64_t) * (size_t)(max_len + 2 * max_grams + max_ctx + n_scored + max_rows + 1));
    w->first = malloc(sizeof(int32_t) * (size_t)(2 * max_grams + 1));
    w->dropped = calloc((size_t)max_grams + 1, 1);
    w->v = malloc(sizeof(float) * (size_t)(2 * m->dim + n_scored));
    if (!w->positions || !w->first || !w->dropped || !w->v) {
        workspace_free(w);
        return -1;
    }
    w->grams = w->positions + max_len;
    w->perm = w->grams + max_grams;
    w->ctx = w->perm + max_grams;
    w->scored = w->ctx + max_ctx;
    w->rows = w->scored + n_scored;
    w->last = w->first + max_grams;
    w->grad = w->v + m->dim;
    w->coeff = w->grad + m->dim;
    return 0;
}

/* factors of the loss product per log: 2^1000 is finite in double */
#define LOSS_FACTORS 1000

/* One step on a non-empty context against scored[0] (the target) and the
 * negatives scored[1:]; returns the loss in 64-bit.  Duplicate rows in
 * either list receive one update per occurrence, and every gradient uses
 * the pre-update target rows, as in model.train_step. */
static double sgd_step(const sv_model *m, const int64_t *ctx, int64_t n_ctx, const int64_t *scored,
                       int64_t n_scored, double lr, workspace *w)
{
    const int32_t dim = m->dim;
    float *const source = m->source, *const target = m->target;
    float *const v = w->v, *const grad = w->grad, *const coeff = w->coeff;

    sum_rows(v, (const char *)source, ctx, NULL, n_ctx, dim);

    /* the loss of each row is log(1 + z) + max(-x, 0); the log terms are
     * taken as the log of the product of the factors 1 + z, each in (1, 2],
     * restarted every LOSS_FACTORS factors so the product stays finite */
    double loss = 0.0, product = 1.0;
    int factors = 0;
    for (int64_t j = 0; j < n_scored; j++)
        coeff[j] = dot(target + scored[j] * dim, v, dim);
    for (int64_t j = 0; j < n_scored; j++) {
        const float score = coeff[j];
        /* label +1 for the target, -1 for negatives; loss log(1 + exp(-x)),
         * and p = sigmoid(score), both stable on either tail */
        const double x = j == 0 ? (double)score : -(double)score;
        const double z = exp(-fabs(x));
        loss += x < 0.0 ? -x : 0.0; /* fmax(-x, 0.0) for NaN too, without a call */
        product *= 1.0 + z;
        if (++factors == LOSS_FACTORS) {
            loss += log(product);
            product = 1.0;
            factors = 0;
        }
        const double p = score >= 0.0f ? 1.0 / (1.0 + z) : z / (1.0 + z);
        coeff[j] = (float)(j == 0 ? p - 1.0 : p);
    }
    sum_rows(grad, (const char *)target, scored, coeff, n_scored, dim);
    const float flr = (float)lr;
    for (int64_t j = 0; j < n_scored; j++)
        add_scaled(target + scored[j] * dim, v, -(flr * coeff[j]), dim);
    const float scale = -(float)(lr / (double)n_ctx);
    for (int64_t c = 0; c < n_ctx; c++)
        add_scaled(source + ctx[c] * dim, grad, scale, dim);

    if (m->l1_tau > 0.0) {
        memcpy(w->rows, ctx, sizeof(int64_t) * (size_t)n_ctx);
        l1_prox_rows(source, dim, w->rows, n_ctx, m->l1_tau * lr / (double)n_ctx);
        memcpy(w->rows, scored, sizeof(int64_t) * (size_t)n_scored);
        l1_prox_rows(target, dim, w->rows, n_scored, m->l1_tau * lr);
    }
    return loss + log(product);
}

static inline double current_lr(const sv_model *m)
{
    double progress = (double)__atomic_load_n(m->progress, __ATOMIC_RELAXED) / m->total_expected;
    progress = progress < 0.0 ? 0.0 : (progress > 1.0 ? 1.0 : progress);
    const double lr = m->base_lr * (1.0 - progress);
    const double floor = LR_FLOOR_FRACTION * m->base_lr;
    return lr > floor ? lr : floor;
}

/* ---- entry points ---- */

/* Train on sentences[0:n] of the corpus.  Writes each sentence's loss sum
 * and step count, and adds the step count to the shared progress counter
 * once the sentence is done.  Returns SV_OK, SV_ONLY_TARGET when the
 * negative table holds nothing but a target word, or SV_NO_MEMORY. */
int sv_train_chunk(const sv_model *m, const int64_t *sentences, int64_t n, uint64_t *rng,
                   double *loss_sums, int64_t *steps)
{
    int64_t max_len = 0;
    for (int64_t s = 0; s < n; s++) {
        const int64_t len = m->offsets[sentences[s] + 1] - m->offsets[sentences[s]];
        max_len = len > max_len ? len : max_len;
    }
    workspace w;
    if (workspace_alloc(&w, m, max_len) != 0)
        return SV_NO_MEMORY;
    const int64_t n_scored = 1 + (int64_t)m->negatives;

    int status = SV_OK;
    for (int64_t s = 0; s < n && status == SV_OK; s++) {
        const int32_t *ids = m->tokens + m->offsets[sentences[s]];
        const int64_t len = m->offsets[sentences[s] + 1] - m->offsets[sentences[s]];
        const int64_t n_grams = sentence_ngrams(ids, len, m->order, m->vocab_size, m->buckets,
                                                w.grams, w.first, w.last);
        const int64_t n_pos = gate_positions(ids, len, m->gate_prob, rng, w.positions);
        const int64_t n_drop = m->dropout_k < n_grams ? m->dropout_k : n_grams;
        for (int64_t g = 0; g < n_grams; g++)
            w.perm[g] = g;
        double loss_sum = 0.0;
        int64_t done = 0;
        for (int64_t p = 0; p < n_pos; p++) {
            const int64_t pos = w.positions[p];
            /* partial Fisher-Yates: perm[0:n_drop] is a uniform n_drop-subset */
            for (int64_t j = 0; j < n_drop; j++) {
                const int64_t r = j + (int64_t)next_below(rng, (uint64_t)(n_grams - j));
                const int64_t swap = w.perm[j];
                w.perm[j] = w.perm[r];
                w.perm[r] = swap;
                w.dropped[w.perm[j]] = 1;
            }
            w.scored[0] = ids[pos];
            status = draw_negatives(&m->sampler, ids[pos], m->negatives, rng,
                                    w.scored + 1);
            if (status != SV_OK)
                break;
            const double lr = current_lr(m);
            const int64_t n_ctx = masked_context(ids, len, pos, w.grams, w.first, w.last, n_grams,
                                                 w.dropped, w.ctx);
            for (int64_t j = 0; j < n_drop; j++)
                w.dropped[w.perm[j]] = 0;
            if (n_ctx == 0)
                continue;
            loss_sum += sgd_step(m, w.ctx, n_ctx, w.scored, n_scored, lr, &w);
            done++;
        }
        __atomic_fetch_add(m->progress, done, __ATOMIC_RELAXED);
        loss_sums[s] = loss_sum;
        steps[s] = done;
    }
    workspace_free(&w);
    return status;
}

/* The n-gram rows and spans of one sentence; returns their number. */
int64_t sv_sentence_ngrams(const int32_t *ids, int64_t len, int32_t order, int64_t vocab_size,
                           int64_t buckets, int64_t *grams, int32_t *first, int32_t *last)
{
    return sentence_ngrams(ids, len, order, vocab_size, buckets, grams, first, last);
}

/* One SGD step on the sentence ids[0:len] with the target at pos, the given
 * negatives and lr; n-grams flagged in dropped (may be NULL) are left out.
 * Stores the loss and returns 1, returns 0 for an empty context, or -1
 * when out of memory. */
int sv_step(const sv_model *m, const int32_t *ids, int64_t len, int64_t pos, const uint8_t *dropped,
            const int64_t *negatives, double lr, double *loss)
{
    workspace w;
    if (workspace_alloc(&w, m, len) != 0)
        return -1;
    const int64_t n_grams = sentence_ngrams(ids, len, m->order, m->vocab_size, m->buckets,
                                            w.grams, w.first, w.last);
    const int64_t n_ctx = masked_context(ids, len, pos, w.grams, w.first, w.last, n_grams,
                                         dropped, w.ctx);
    w.scored[0] = ids[pos];
    memcpy(w.scored + 1, negatives, sizeof(int64_t) * (size_t)m->negatives);
    if (n_ctx > 0)
        *loss = sgd_step(m, w.ctx, n_ctx, w.scored, 1 + (int64_t)m->negatives, lr, &w);
    workspace_free(&w);
    return n_ctx > 0;
}

/* count negatives for target drawn as in training; SV_OK or SV_ONLY_TARGET */
int sv_draw_negatives(const sv_alias *a, int64_t target, int64_t count, uint64_t *rng,
                      int64_t *out)
{
    return draw_negatives(a, target, count, rng, out);
}

/* The gated positions of ids[0:len] drawn as in training; returns their number. */
int64_t sv_gate_positions(const int32_t *ids, int64_t len, const double *gate_prob, uint64_t *rng,
                          int64_t *positions)
{
    return gate_positions(ids, len, gate_prob, rng, positions);
}

/* ---- the initial source matrix ---- */

/* The lanes of sv_fill_uniform: eight where the build targets AVX-512F and
 * AVX-512DQ, whose int64 -> double conversions the vector path needs, and
 * four scalar 128-bit states elsewhere.  The vector path builds its 64-bit
 * products from 32 x 32-bit ones (mul32), which issue as one micro-op each
 * where a 64-bit lane multiply takes three. */
#if defined(__AVX512F__) && defined(__AVX512DQ__)
#define FILL_LANES 8

typedef uint64_t v8u64 __attribute__((vector_size(64)));
typedef int64_t v8i64 __attribute__((vector_size(64)));
typedef double v8d __attribute__((vector_size(64)));

/* the products of the low 32 bits of each lane of x and y, one vpmuludq;
 * GCC never makes that instruction from a 64-bit lane multiply */
static inline v8u64 mul32(v8u64 x, v8u64 y)
{
    return (v8u64)_mm512_mul_epu32((__m512i)x, (__m512i)y);
}

/* x * y mod 2^64 in each lane: the low product and the two cross products */
static inline v8u64 mul_low(v8u64 x, v8u64 y)
{
    return mul32(x, y) + ((mul32(x, y >> 32) + mul32(x >> 32, y)) << 32);
}

/* x * y in each lane as its high and low 64 bits, from four 32 x 32-bit products */
static inline v8u64 mul_wide(v8u64 x, v8u64 y, v8u64 *high)
{
    const v8u64 p00 = mul32(x, y), p01 = mul32(x, y >> 32), p10 = mul32(x >> 32, y);
    const v8u64 mid = (p00 >> 32) + (p01 & 0xffffffffu) + (p10 & 0xffffffffu);
    *high = mul32(x >> 32, y >> 32) + (p01 >> 32) + (p10 >> 32) + (mid >> 32);
    return mid << 32 | (p00 & 0xffffffffu);
}
#else
#define FILL_LANES 4
#endif

/* The lanes sv_fill_uniform runs: 8 or 4. */
int sv_fill_lanes(void) { return FILL_LANES; }

/* out[0:n] = the next n values of numpy's Generator(PCG64).uniform(low,
 * low + range), cast to float32; state holds the generator's 128-bit state
 * and increment as {state_hi, state_lo, inc_hi, inc_lo} and is not changed.
 * numpy steps the state, then outputs the new one: value i (from 0) comes
 * from s_{i+1} = a s_i + c.  FILL_LANES = L lanes hold s_{j+1}, s_{j+L+1},
 * ... and leap L steps at once, s_{i+L} = a^L s_i + c (a^(L-1) + ... + 1), so
 * their multiplies do not wait on each other; the values are the same.  The
 * last n mod L values come from the lanes' states one by one. */
void sv_fill_uniform(float *out, int64_t n, const uint64_t *state, double low, double range)
{
    const unsigned __int128 a = PCG_MULTIPLIER, c = (unsigned __int128)state[2] << 64 | state[3];
    unsigned __int128 aL = 1, cL = 0, s[FILL_LANES];
    unsigned __int128 x = (unsigned __int128)state[0] << 64 | state[1];
    for (int j = 0; j < FILL_LANES; j++) {
        aL *= a;
        cL = a * cL + c;
        x = a * x + c;
        s[j] = x;
    }
    int64_t i = 0;
#if FILL_LANES == 8
    /* each lane's state as its high and low halves: (hi, lo) * (a_hi, a_lo)
     * mod 2^128 is lo * a_lo, with its high half and the cross products
     * lo * a_hi and hi * a_lo added to the high word; a compare gives the
     * carry of adding c_lo */
    v8u64 hi, lo;
    for (int j = 0; j < 8; j++) {
        hi[j] = (uint64_t)(s[j] >> 64);
        lo[j] = (uint64_t)s[j];
    }
    const v8u64 a_hi = (v8u64){0} + (uint64_t)(aL >> 64), a_lo = (v8u64){0} + (uint64_t)aL;
    const uint64_t c_hi = (uint64_t)(cL >> 64), c_lo = (uint64_t)cL;
    for (; i + 8 <= n; i += 8) {
        /* pcg_uniform, lane by lane */
        const v8u64 xsl = hi ^ lo, rot = hi >> 58;
        const v8u64 drawn = (xsl >> rot) | (xsl << ((64u - rot) & 63u));
        const v8d unit = __builtin_convertvector((v8i64)(drawn >> 11), v8d) * 0x1.0p-53;
        const v8f values = __builtin_convertvector(low + range * unit, v8f);
        memcpy(out + i, &values, sizeof values);
        v8u64 high;
        const v8u64 next_lo = mul_wide(lo, a_lo, &high) + c_lo;
        hi = high + mul_low(lo, a_hi) + mul_low(hi, a_lo) + c_hi - (v8u64)(next_lo < c_lo);
        lo = next_lo;
    }
    for (int j = 0; j < 8; j++)
        s[j] = (unsigned __int128)hi[j] << 64 | lo[j];
#else
    for (; i + 4 <= n; i += 4) {
        out[i] = pcg_uniform(s[0], low, range);
        out[i + 1] = pcg_uniform(s[1], low, range);
        out[i + 2] = pcg_uniform(s[2], low, range);
        out[i + 3] = pcg_uniform(s[3], low, range);
        s[0] = aL * s[0] + cL;
        s[1] = aL * s[1] + cL;
        s[2] = aL * s[2] + cL;
        s[3] = aL * s[3] + cL;
    }
#endif
    for (int j = 0; i < n; i++, j++)
        out[i] = pcg_uniform(s[j], low, range);
}

/* ---- %.6g text ---- */

/* bytes one %.6g value of a float32 takes at most, plus its separator:
 * "-1.17549e-38" and one byte; must equal sentvec._native._VALUE_BYTES.
 * put_g6 stores whole words and may write up to 14 bytes from where a value
 * starts, two past its longest text, and put_g6_lanes 12 and the separator
 * after; the 3 bytes each row keeps for its flag and newline cover that
 * after the row's last value. */
#define G6_VALUE_BYTES 13

static const double POW10[23] = {
    1e0,  1e1,  1e2,  1e3,  1e4,  1e5,  1e6,  1e7,  1e8,  1e9,  1e10, 1e11,
    1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
};

/* a * 10^k with at most three roundings: every factor is exact in double */
static double scale10(double a, int k)
{
    for (; k > 22; k -= 22)
        a *= 1e22;
    for (; k < -22; k += 22)
        a /= 1e22;
    return k >= 0 ? a * POW10[k] : a / POW10[-k];
}

/* The six significant digits of a finite a > 0 rounded to nearest, and the
 * decimal exponent of their leading digit; 0 when the scaled value lies too
 * close to a rounding tie for its error (at most 3.4e-10 here) to be ruled out. */
static inline int g6_digits(double a, uint32_t *digits, int *exp10)
{
    uint64_t bits;
    memcpy(&bits, &a, sizeof bits);
    /* floor(log10(a)), or one less: a lies in [2^b, 2^(b+1)) for this b, and
     * 78913 / 2^18 is log10(2) to within 3e-8 */
    const int b = (int)(bits >> 52) - 1023;
    int e = (b * 78913) >> 18;
    /* both scalings, by 10^(5-e) and, for when that gives seven digits,
     * 10^(4-e); a single product each for |a| in about [1e-17, 1e5) */
    const int k = 5 - e;
    double y0, y1;
    if ((unsigned)(k - 1) < 22u) {
        y0 = a * POW10[k];
        y1 = a * POW10[k - 1];
    } else {
        y0 = scale10(a, k);
        y1 = scale10(a, k - 1);
    }
    const int up = y0 >= 1e6;
    const double y = up ? y1 : y0;
    /* y rounded to an integer in the low bits of t, and what that moved it by:
     * |fraction - 0.5| for the fraction of y is 0.5 - |moved|, both exact */
    const double t = y + 0x1p52;
    const double moved = y - (t - 0x1p52);
    if (!(y >= 1e5 && y < 1e6) || 0.5 - fabs(moved) < 1e-6)
        return 0;
    uint64_t t_bits;
    memcpy(&t_bits, &t, sizeof t_bits);
    const uint32_t rounded = (uint32_t)t_bits;
    const int carry = rounded == 1000000; /* 999999.5 and up: 100000 of the next power */
    *digits = rounded - 900000u * (uint32_t)carry;
    *exp10 = e + up + carry;
    return 1;
}

/* the low n bytes of v at p, lowest first, whatever the host's byte order */
static inline void store_le(char *p, uint64_t v, size_t n)
{
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    v = __builtin_bswap64(v);
#endif
    memcpy(p, &v, n);
}

/* x as "%.6g" formats it, with NaN as "nan" whatever its sign (as Python
 * prints it); returns the end of the text, at most 12 bytes on.  The common
 * case stores 8-byte words and moves p by the text's length: bytes past the
 * end are left for the next value or the row's end to overwrite. */
static char *put_g6(char *p, float x)
{
    uint32_t xbits;
    memcpy(&xbits, &x, sizeof xbits);
    if ((xbits & 0x7fffffffu) - 1u >= 0x7f7fffffu) { /* zero, inf or nan */
        if (isnan(x)) {
            memcpy(p, "nan", 3);
            return p + 3;
        }
        *p = '-';
        p += xbits >> 31;
        if (x == 0.0f) {
            *p = '0';
            return p + 1;
        }
        memcpy(p, "inf", 3);
        return p + 3;
    }
    *p = '-';
    p += xbits >> 31;
    const double a = fabs((double)x);
    uint32_t digits;
    int e;
    if (!g6_digits(a, &digits, &e)) {
        /* glibc rounds exactly, ties to even, as CPython does */
        char text[32];
        const int n = snprintf(text, sizeof text, "%.6g", a);
        memcpy(p, text, (size_t)n);
        return p + n;
    }
    /* the digits as byte values of one word, the leading digit lowest: three
     * two-digit pairs in 16-bit lanes, each split by tens = pair * 103 >> 10 */
    const uint32_t q2 = digits / 100, q4 = digits / 10000;
    const uint64_t pairs = q4 | (uint64_t)(q2 - 100 * q4) << 16 | (uint64_t)(digits - 100 * q2) << 32;
    const uint64_t tens = (pairs * 103 >> 10) & 0x000f000f000fu;
    const uint64_t values = tens | (pairs - 10 * tens) << 8;
    /* the last digit kept (%g drops trailing zeros) is the highest nonzero byte */
    const int last = (63 - __builtin_clzll(values)) >> 3;
    const uint64_t text = values | 0x303030303030u;
    if (e < -4 || e >= 6) {
        /* d.ddddde-dd: the point after the leading digit, then the exponent */
        store_le(p, (text & 0xff) | (uint64_t)'.' << 8 | (text >> 8) << 16, 8);
        p += last > 0 ? last + 2 : 1;
        const uint32_t ae = (uint32_t)(e < 0 ? -e : e), sign = e < 0 ? '-' : '+';
        store_le(p, 'e' | sign << 8 | ('0' + ae / 10) << 16 | ('0' + ae % 10) << 24, 4);
        return p + 4;
    }
    if (e >= 0) {
        /* the e + 1 digits of the integer part, then the point and the rest */
        const int s = 8 * (e + 1);
        store_le(p, (text & ((1ull << s) - 1)) | (uint64_t)'.' << s | (text >> s) << (s + 8), 8);
        return p + (last > e ? last + 2 : e + 1);
    }
    /* "0." and -e - 1 zeros, then the digits */
    store_le(p, 0x3030303030302e30u, 8);
    store_le(p + 1 - e, text, 8);
    return p + 2 - e + last;
}

/* The vector writer: eight values per pass where the build targets
 * AVX-512F, CD (vplzcntq) and BW (16-bit lane multiplies), and put_g6 alone
 * elsewhere. */
#if defined(__AVX512F__) && defined(__AVX512CD__) && defined(__AVX512BW__)
#define G6_LANES 8

static inline __m512i splat(int64_t c) { return _mm512_set1_epi64(c); }

/* The texts of the values xf as put_g6 writes them, as words: lane i of lo, hi and
 * bytes holds text i's first 8 and next 4 bytes and its length.  The lanes
 * take the steps of g6_digits and put_g6 in double and 64-bit integer lanes
 * for |x| in [2^-16, 2^17), where one product by 10^(5-e), e in [-5, 4],
 * scales x.  Bit i of the result is clear when put_g6 must write value i
 * itself: it lies outside that range (zero, subnormal, inf and NaN
 * included), near a rounding tie, or takes the exponent form (below 1e-4).
 * The variable shifts give 0 for counts past 63, so those lanes need no
 * clamping. */
static inline unsigned g6_lanes(__m256 xf, uint64_t *lo, uint64_t *hi, uint64_t *bytes)
{
    const __m512i bits = _mm512_cvtepu32_epi64(_mm256_castps_si256(xf));
    const __m512d a = _mm512_abs_pd(_mm512_cvtps_pd(xf));
    /* b = field - 127 and e = floor(b log10(2)) of g6_digits, from the float's
     * exponent field, which lies in [111, 143] exactly when e lies in [-5, 4] */
    const __m512i field = _mm512_and_si512(_mm512_srli_epi64(bits, 23), splat(0xff));
    __mmask8 fast = _mm512_cmplt_epu64_mask(_mm512_sub_epi64(field, splat(111)), splat(33));
    const __m512i b = _mm512_sub_epi64(field, splat(127));
    const __m512i e = _mm512_srai_epi64(_mm512_mul_epi32(b, splat(78913)), 18);
    /* 10^k and 10^(k - 1) for k = 5 - e in [1, 10], from the first 16 powers */
    const __m512d low = _mm512_loadu_pd(POW10), high = _mm512_loadu_pd(POW10 + 8);
    const __m512i k = _mm512_sub_epi64(splat(5), e);
    const __m512d y0 = _mm512_mul_pd(a, _mm512_permutex2var_pd(low, k, high));
    const __m512d y1 = _mm512_mul_pd(a, _mm512_permutex2var_pd(low, _mm512_sub_epi64(k, splat(1)), high));
    const __mmask8 up = _mm512_cmp_pd_mask(y0, _mm512_set1_pd(1e6), _CMP_GE_OQ);
    const __m512d y = _mm512_mask_blend_pd(up, y0, y1);
    const __m512d t = _mm512_add_pd(y, _mm512_set1_pd(0x1p52));
    const __m512d moved = _mm512_sub_pd(y, _mm512_sub_pd(t, _mm512_set1_pd(0x1p52)));
    fast = _mm512_mask_cmp_pd_mask(fast, y, _mm512_set1_pd(1e5), _CMP_GE_OQ);
    fast = _mm512_mask_cmp_pd_mask(fast, y, _mm512_set1_pd(1e6), _CMP_LT_OQ);
    fast = _mm512_mask_cmp_pd_mask(fast, _mm512_sub_pd(_mm512_set1_pd(0.5), _mm512_abs_pd(moved)),
                                   _mm512_set1_pd(1e-6), _CMP_GE_OQ);
    const __m512i rounded = _mm512_and_si512(_mm512_castpd_si512(t), splat(0xffffffff));
    const __mmask8 carry = _mm512_cmpeq_epi64_mask(rounded, splat(1000000));
    const __m512i digits = _mm512_mask_sub_epi64(rounded, carry, rounded, splat(900000));
    __m512i e10 = _mm512_mask_add_epi64(e, up, e, splat(1));
    e10 = _mm512_mask_add_epi64(e10, carry, e10, splat(1));
    fast = _mm512_mask_cmpge_epi64_mask(fast, e10, splat(-4));

    /* the digit word of put_g6: three pairs from the quotients by 100 and
     * 10000 (multiply and shift, exact below 2^32), each split in its 16-bit
     * lane into tens = pair * 6554 >> 16 and ones */
    const __m512i q2 = _mm512_srli_epi64(_mm512_mul_epu32(digits, splat(0x51eb851f)), 37);
    const __m512i q4 = _mm512_srli_epi64(_mm512_mul_epu32(digits, splat(0xd1b71759)), 45);
    const __m512i pairs = _mm512_or_si512(
        _mm512_or_si512(q4, _mm512_slli_epi64(_mm512_sub_epi64(q2, _mm512_mul_epu32(q4, splat(100))), 16)),
        _mm512_slli_epi64(_mm512_sub_epi64(digits, _mm512_mul_epu32(q2, splat(100))), 32));
    const __m512i tens = _mm512_mulhi_epu16(pairs, _mm512_set1_epi16(6554));
    const __m512i values = /* tens | ones << 8 = (pair << 8) - 2559 tens */
        _mm512_sub_epi16(_mm512_slli_epi16(pairs, 8), _mm512_mullo_epi16(tens, _mm512_set1_epi16(2559)));
    const __m512i last = _mm512_srli_epi64(_mm512_sub_epi64(splat(63), _mm512_lzcnt_epi64(values)), 3);
    const __m512i text = _mm512_or_si512(values, splat(0x303030303030));

    /* e in [0, 5]: the text up to digit e + 1, the point, then the rest one
     * byte up */
    const __m512i f = _mm512_max_epi64(e10, _mm512_setzero_si512());
    const __m512i s = _mm512_add_epi64(_mm512_slli_epi64(f, 3), splat(8));
    const __m512i below = _mm512_sub_epi64(_mm512_sllv_epi64(splat(1), s), splat(1));
    __m512i w0 = _mm512_or_si512(
        _mm512_or_si512(_mm512_and_si512(text, below), _mm512_sllv_epi64(splat('.'), s)),
        _mm512_slli_epi64(_mm512_andnot_si512(below, text), 8));
    __m512i n = _mm512_mask_blend_epi64(_mm512_cmpgt_epi64_mask(last, f), _mm512_add_epi64(f, splat(1)),
                                        _mm512_add_epi64(last, splat(2)));
    /* e in [-4, -1]: "0.", -e - 1 zeros and the digits, whose bytes hold the
     * zeros' bits too */
    const __mmask8 small = _mm512_cmplt_epi64_mask(e10, _mm512_setzero_si512());
    const __m512i zeros = _mm512_sub_epi64(splat(1), e10), shift = _mm512_slli_epi64(zeros, 3);
    w0 = _mm512_mask_or_epi64(w0, small, splat(0x3030303030302e30), _mm512_sllv_epi64(text, shift));
    __m512i w1 = _mm512_maskz_srlv_epi64(small, text, _mm512_sub_epi64(splat(64), shift));
    n = _mm512_mask_add_epi64(n, small, zeros, _mm512_add_epi64(last, splat(1)));
    /* the sign, a byte before the text */
    const __mmask8 negative = _mm512_test_epi64_mask(bits, splat(1u << 31));
    w1 = _mm512_mask_or_epi64(w1, negative, _mm512_slli_epi64(w1, 8), _mm512_srli_epi64(w0, 56));
    w0 = _mm512_mask_or_epi64(w0, negative, _mm512_slli_epi64(w0, 8), splat('-'));
    n = _mm512_mask_add_epi64(n, negative, n, splat(1));

    _mm512_storeu_si512(lo, w0);
    _mm512_storeu_si512(hi, w1);
    _mm512_storeu_si512(bytes, n);
    return fast;
}

/* the values of a block of put_g6_lanes: a multiple of 8 */
#define G6_BLOCK 64

/* x[0:n] as put_g6 writes them, each followed by sep; returns the end.  The
 * words of a block's texts come first, from a loop with no call, which keeps
 * its constants in registers; then each text is stored in turn, 8 and 4
 * bytes from where it starts.  A pass over fewer than eight values loads
 * them under a mask, which reads nothing past x[n - 1], and its other lanes
 * hold zeros that nothing stores. */
static char *put_g6_lanes(char *p, const float *x, int64_t n, char sep)
{
    uint64_t lo[G6_BLOCK], hi[G6_BLOCK], bytes[G6_BLOCK];
    for (int64_t start = 0; start < n; start += G6_BLOCK) {
        const int m = n - start < G6_BLOCK ? (int)(n - start) : G6_BLOCK;
        uint64_t fast = 0;
        for (int g = 0; g < m; g += 8) {
            const float *v = x + start + g;
            const __m256 xf = m - g >= 8 ? _mm256_loadu_ps(v)
                                         : _mm512_castps512_ps256(_mm512_maskz_loadu_ps(
                                               (__mmask16)((1u << (m - g)) - 1), v));
            fast |= (uint64_t)g6_lanes(xf, lo + g, hi + g, bytes + g) << g;
        }
        for (int i = 0; i < m; i++) {
            if (fast >> i & 1) {
                store_le(p, lo[i], 8);
                store_le(p + 8, hi[i], 4);
                p += bytes[i];
            } else {
                p = put_g6(p, x[start + i]);
            }
            *p++ = sep;
        }
    }
    return p;
}
#endif

#ifndef G6_LANES
#define G6_LANES 1
#endif

/* The values sv_format_rows writes per pass: 8, or 1 where put_g6 writes each. */
int sv_format_lanes(void) { return G6_LANES; }

/* The text of one row: row[0:dim] as %.6g values joined by sep, then, when
 * flag is 0 or 1 (not -1), a space and the flag, then a newline; returns its
 * end.  It takes at most G6_VALUE_BYTES * dim + 3 bytes and stores none past
 * them.  Each value is followed by sep, and the row's last one is
 * overwritten. */
static inline char *put_row(char *p, const float *row, int64_t dim, char sep, int flag)
{
#if G6_LANES == 8
    p = put_g6_lanes(p, row, dim, sep);
#else
    for (int64_t j = 0; j < dim; j++) {
        p = put_g6(p, row[j]);
        *p++ = sep;
    }
#endif
    p -= dim > 0;
    if (flag >= 0) {
        *p++ = ' ';
        *p++ = (char)('0' + flag);
    }
    *p++ = '\n';
    return p;
}

/* The text of rows[0:n_rows] (n_rows x dim, row-major), one put_row line per
 * row, with the row's flag (0 or 1) when flags is not NULL.  Returns the
 * bytes written, or -1 when a row might not fit in the capacity left. */
int64_t sv_format_rows(const float *rows, int64_t n_rows, int64_t dim, char sep,
                       const uint8_t *flags, char *out, int64_t capacity)
{
    char *p = out;
    for (int64_t r = 0; r < n_rows; r++) {
        if (capacity - (p - out) < G6_VALUE_BYTES * dim + 3)
            return -1;
        p = put_row(p, rows + r * dim, dim, sep, flags == NULL ? -1 : flags[r] != 0);
    }
    return p - out;
}

/* ---- corpus text ---- */

/* the ASCII whitespace of str.split(): \t \n \v \f \r, \x1c-\x1f and space.
 * No byte >= 0x80 is whitespace here; Python splits the lines that hold one. */
static const unsigned char SPACE[256] = {
    ['\t'] = 1, ['\n'] = 1, ['\v'] = 1, ['\f'] = 1, ['\r'] = 1,
    [0x1c] = 1, [0x1d] = 1, [0x1e] = 1, [0x1f] = 1, [' '] = 1,
};

/* the start of the first token of s[p:len], with its end in *end; len when
 * none is left */
static inline int64_t next_token(const unsigned char *s, int64_t p, int64_t len, int64_t *end)
{
    while (p < len && SPACE[s[p]])
        p++;
    int64_t q = p;
    while (q < len && !SPACE[s[q]])
        q++;
    *end = q;
    return p;
}

#define BYTE_ONES 0x0101010101010101u
#define HASH_MULTIPLIER 0x9e3779b97f4a7c15u

/* x with each ASCII capital byte lowercased, which only ASCII text may ask for */
static inline uint64_t fold_ascii(uint64_t x)
{
    /* the high bit of each byte of these sums: byte >= 'A', byte > 'Z' */
    const uint64_t from_a = x + (0x80 - 'A') * BYTE_ONES, past_z = x + (0x7f - 'Z') * BYTE_ONES;
    return x | (from_a & ~past_z & 0x80 * BYTE_ONES) >> 2;
}

/* s[0:n], n <= 8, as the low bytes of a word; folded by fold_ascii when fold */
static inline uint64_t load_word(const unsigned char *s, int64_t n, int fold)
{
    uint64_t x = 0;
    if (n == 8)
        memcpy(&x, s, sizeof x);
    else
        for (int64_t i = 0; i < n; i++)
            x |= (uint64_t)s[i] << (8 * i);
    return fold ? fold_ascii(x) : x;
}

/* The first min(len, 8) bytes of s[0:len] as the low bytes of a word: one
 * unaligned load of eight bytes masked to len where room >= 8 bytes are
 * readable at s, and load_word's bytes one at a time where fewer are. */
static inline uint64_t token_head(const unsigned char *s, int64_t len, int64_t room)
{
    if (room < 8)
        return load_word(s, len, 0);
    uint64_t x;
    memcpy(&x, s, sizeof x);
    return len < 8 ? x & ~(~(uint64_t)0 << 8 * len) : x;
}

/* the high bit of each byte of x that is an ASCII capital */
static inline uint64_t capitals(uint64_t x)
{
    /* bytes of at most 0x7f, so that no sum carries into the next byte */
    const uint64_t low = x & 0x7f * BYTE_ONES;
    return (low + (0x80 - 'A') * BYTE_ONES) & ~(low + (0x7f - 'Z') * BYTE_ONES) & ~x &
           0x80 * BYTE_ONES;
}

/* A hash of the len >= 1 bytes s[0:len] (ASCII-lowercased when fold), eight
 * bytes at a time, mixed so that its low bits, which pick the slot, depend on
 * all of it.  head is token_head of s (folded when fold); room bytes are
 * readable at s. */
static uint64_t hash_token(const unsigned char *s, int64_t len, int64_t room, uint64_t head,
                           int fold)
{
    uint64_t h = ((uint64_t)len * HASH_MULTIPLIER ^ head) * HASH_MULTIPLIER;
    h ^= h >> 29;
    for (int64_t i = 8; i < len; i += 8) {
        const uint64_t x = token_head(s + i, len - i, room - i);
        h = (h ^ (fold ? fold_ascii(x) : x)) * HASH_MULTIPLIER;
        h ^= h >> 29;
    }
    h *= 0xbf58476d1ce4e5b9u;
    return h ^ (h >> 32);
}

#define TABLE_SLOTS 1024
#define INITIAL_ITEMS 4096

/* A slot of sv_table: a string's first eight bytes as a word, its tag, and
 * its id + 1, 0 when the slot is empty.  The tag is the high 24 bits of the
 * string's hash above its length (up to 255), so strings of at most eight
 * bytes are compared within their slot. */
typedef struct {
    uint64_t head;
    uint32_t tag;
    uint32_t id1;
} sv_slot;

/* A set of byte strings with dense ids in order of first insertion: open
 * addressing with linear probing over a power-of-two slot array at most half
 * full. */
typedef struct {
    sv_slot *slots;
    unsigned char *bytes; /* the strings back to back */
    int64_t *ends;        /* string i is bytes[i ? ends[i - 1] : 0 : ends[i]] */
    int64_t capacity;     /* slots */
    int64_t n_strings;
    int64_t strings_cap;
    int64_t n_bytes;
    int64_t bytes_cap;
} sv_table;

/* array (of *cap elements of size bytes) grown to hold need elements, or NULL
 * when out of memory, which leaves array and *cap as they were */
static void *grown(void *array, int64_t *cap, int64_t need, size_t size)
{
    int64_t n = *cap;
    while (n < need)
        n *= 2;
    if (n == *cap)
        return array;
    void *larger = realloc(array, (size_t)n * size);
    if (larger != NULL)
        *cap = n;
    return larger;
}

static inline sv_slot make_slot(uint64_t head, int64_t len, uint64_t hash)
{
    const sv_slot slot = {
        head,
        (uint32_t)(hash >> 40) << 8 | (uint32_t)(len < 255 ? len : 255),
        0,
    };
    return slot;
}

static int table_same(const sv_table *t, int64_t id, const unsigned char *s, int64_t len, int fold)
{
    const int64_t start = id > 0 ? t->ends[id - 1] : 0;
    if (t->ends[id] - start != len)
        return 0;
    const unsigned char *stored = t->bytes + start;
    for (int64_t i = 0; i < len; i += 8) {
        const int64_t n = len - i < 8 ? len - i : 8;
        if (load_word(stored + i, n, 0) != load_word(s + i, n, fold))
            return 0;
    }
    return 1;
}

/* the slot of s[0:len] (ASCII-lowercased when fold), or the empty slot where
 * it would go; key is make_slot of it */
static uint64_t table_slot(const sv_table *t, const unsigned char *s, int64_t len, uint64_t hash,
                           sv_slot key, int fold)
{
    const uint64_t mask = (uint64_t)t->capacity - 1;
    for (uint64_t i = hash & mask;; i = (i + 1) & mask) {
        const sv_slot *slot = t->slots + i;
        if (slot->id1 == 0 ||
            (slot->tag == key.tag && slot->head == key.head &&
             (len <= 8 || table_same(t, slot->id1 - 1, s, len, fold))))
            return i;
    }
}

static int table_resize(sv_table *t, int64_t capacity)
{
    sv_slot *slots = calloc((size_t)capacity, sizeof *slots);
    if (slots == NULL)
        return -1;
    const uint64_t mask = (uint64_t)capacity - 1;
    for (int64_t id = 0; id < t->n_strings; id++) {
        const int64_t start = id > 0 ? t->ends[id - 1] : 0, len = t->ends[id] - start;
        const int64_t room = t->n_bytes - start;
        const uint64_t head = token_head(t->bytes + start, len, room);
        const uint64_t hash = hash_token(t->bytes + start, len, room, head, 0);
        uint64_t i = hash & mask;
        while (slots[i].id1 != 0)
            i = (i + 1) & mask;
        slots[i] = make_slot(head, len, hash);
        slots[i].id1 = (uint32_t)(id + 1);
    }
    free(t->slots);
    t->slots = slots;
    t->capacity = capacity;
    return 0;
}

static void table_release(sv_table *t)
{
    free(t->slots);
    free(t->bytes);
    free(t->ends);
}

/* An empty table with room for strings strings of bytes bytes in all (at
 * least INITIAL_ITEMS of each); 0 on success, and on failure nothing stays
 * allocated */
static int table_init(sv_table *t, int64_t strings, int64_t bytes)
{
    memset(t, 0, sizeof *t);
    t->strings_cap = strings > INITIAL_ITEMS ? strings : INITIAL_ITEMS;
    t->bytes_cap = bytes > INITIAL_ITEMS ? bytes : INITIAL_ITEMS;
    int64_t slots = TABLE_SLOTS;
    while (slots < 2 * strings)
        slots *= 2;
    t->bytes = malloc((size_t)t->bytes_cap);
    t->ends = malloc(sizeof(int64_t) * (size_t)t->strings_cap);
    if (t->bytes == NULL || t->ends == NULL || table_resize(t, slots) != 0) {
        table_release(t);
        return -1;
    }
    return 0;
}

/* the id of s[0:len] (ASCII-lowercased first when fold), or -1; head and
 * room as for hash_token */
static int64_t table_find(const sv_table *t, const unsigned char *s, int64_t len, int64_t room,
                          uint64_t head, int fold)
{
    const uint64_t hash = hash_token(s, len, room, head, fold);
    const sv_slot key = make_slot(head, len, hash);
    return (int64_t)t->slots[table_slot(t, s, len, hash, key, fold)].id1 - 1;
}

/* the id of s[0:len], added when new; -1 when out of memory or of int32 ids.
 * room >= len bytes are readable at s. */
static int64_t table_intern(sv_table *t, const unsigned char *s, int64_t len, int64_t room)
{
    const uint64_t head = token_head(s, len, room);
    const uint64_t hash = hash_token(s, len, room, head, 0);
    sv_slot key = make_slot(head, len, hash);
    uint64_t i = table_slot(t, s, len, hash, key, 0);
    if (t->slots[i].id1 != 0)
        return (int64_t)t->slots[i].id1 - 1;
    if (t->n_strings == INT32_MAX)
        return -1;
    if (2 * (t->n_strings + 1) > t->capacity) {
        if (table_resize(t, 2 * t->capacity) != 0)
            return -1;
        i = table_slot(t, s, len, hash, key, 0);
    }
    unsigned char *bytes = grown(t->bytes, &t->bytes_cap, t->n_bytes + len, 1);
    if (bytes == NULL)
        return -1;
    t->bytes = bytes;
    int64_t *ends = grown(t->ends, &t->strings_cap, t->n_strings + 1, sizeof *ends);
    if (ends == NULL)
        return -1;
    t->ends = ends;
    memcpy(t->bytes + t->n_bytes, s, (size_t)len);
    t->n_bytes += len;
    t->ends[t->n_strings] = t->n_bytes;
    key.id1 = (uint32_t)(t->n_strings + 1);
    t->slots[i] = key;
    return t->n_strings++;
}

/* A corpus being read: its distinct tokens, each token's id, each line's length. */
typedef struct {
    sv_table words;
    int32_t *ids;     /* n_ids: the id of each token, in corpus order */
    int64_t *lengths; /* n_lines: the tokens of each line */
    int64_t n_ids;
    int64_t ids_cap;
    int64_t n_lines;
    int64_t lines_cap;
} sv_encoder;

void sv_encoder_free(sv_encoder *e)
{
    if (e == NULL)
        return;
    table_release(&e->words);
    free(e->ids);
    free(e->lengths);
    free(e);
}

/* An empty encoder, or NULL when out of memory. */
sv_encoder *sv_encoder_new(void)
{
    sv_encoder *e = calloc(1, sizeof *e);
    if (e == NULL)
        return NULL;
    if (table_init(&e->words, 0, 0) != 0) {
        free(e);
        return NULL;
    }
    e->ids = malloc(sizeof(int32_t) * INITIAL_ITEMS);
    e->lengths = malloc(sizeof(int64_t) * INITIAL_ITEMS);
    e->ids_cap = e->lines_cap = INITIAL_ITEMS;
    if (e->ids == NULL || e->lengths == NULL) {
        sv_encoder_free(e);
        return NULL;
    }
    return e;
}

/* intern the whitespace-separated tokens of line s[0:len], where room >= len
 * bytes are readable; 0, or -1 when out of memory */
static int encode_line(sv_encoder *e, const unsigned char *s, int64_t len, int64_t room)
{
    int64_t count = 0, end;
    for (int64_t p = next_token(s, 0, len, &end); p < len; p = next_token(s, end, len, &end)) {
        const int64_t id = table_intern(&e->words, s + p, end - p, room - p);
        if (id < 0)
            return -1;
        if (e->n_ids == e->ids_cap) {
            int32_t *ids = grown(e->ids, &e->ids_cap, e->n_ids + 1, sizeof *ids);
            if (ids == NULL)
                return -1;
            e->ids = ids;
        }
        e->ids[e->n_ids++] = (int32_t)id;
        count++;
    }
    if (e->n_lines == e->lines_cap) {
        int64_t *lengths = grown(e->lengths, &e->lines_cap, e->n_lines + 1, sizeof *lengths);
        if (lengths == NULL)
            return -1;
        e->lengths = lengths;
    }
    e->lengths[e->n_lines++] = count;
    return 0;
}

/* Intern the tokens of the lines of data[0:len), in order; a line ends at
 * '\n' or at len.  Returns 0, or -1 when out of memory. */
int sv_encode_lines(sv_encoder *e, const unsigned char *data, int64_t len)
{
    for (int64_t p = 0; p < len;) {
        const unsigned char *newline = memchr(data + p, '\n', (size_t)(len - p));
        const int64_t end = newline != NULL ? newline - data : len;
        if (encode_line(e, data + p, end - p, len - p) != 0)
            return -1;
        p = end + 1;
    }
    return 0;
}

/* sizes = {tokens, lines, distinct tokens} */
void sv_encoder_sizes(const sv_encoder *e, int64_t *sizes)
{
    sizes[0] = e->n_ids;
    sizes[1] = e->n_lines;
    sizes[2] = e->words.n_strings;
}

/* the token ids, valid until the encoder changes or is freed */
const int32_t *sv_encoder_ids(const sv_encoder *e) { return e->ids; }

/* copy out the token count of every line */
void sv_encoder_lengths(const sv_encoder *e, int64_t *lengths)
{
    memcpy(lengths, e->lengths, sizeof *lengths * (size_t)e->n_lines);
}

/* Write the distinct tokens of ids which[0..n) into bytes, each followed by
 * '\n', and the end of each (at its '\n') into ends; returns the bytes they
 * take.  With bytes NULL only the size is returned. */
int64_t sv_encoder_words(const sv_encoder *e, const int64_t *which, int64_t n, unsigned char *bytes,
                         int64_t *ends)
{
    const sv_table *t = &e->words;
    int64_t q = 0;
    for (int64_t i = 0; i < n; i++) {
        const int64_t id = which[i], start = id > 0 ? t->ends[id - 1] : 0;
        const int64_t len = t->ends[id] - start;
        if (bytes != NULL) {
            memcpy(bytes + q, t->bytes + start, (size_t)len);
            ends[i] = q + len;
            bytes[q + len] = '\n';
        }
        q += len + 1;
    }
    return q;
}

void sv_table_free(sv_table *t)
{
    if (t != NULL)
        table_release(t);
    free(t);
}

/* The table of the n strings of words, each followed by one separator byte:
 * string i is words[ends[i - 1] + 1 (0 for i = 0) : ends[i]], with id i.
 * NULL with *repeat = -1 when out of memory, or with *repeat = i when string i
 * equals an earlier one. */
sv_table *sv_table_new(const unsigned char *words, const int64_t *ends, int64_t n, int64_t *repeat)
{
    *repeat = -1;
    sv_table *t = malloc(sizeof *t);
    if (t == NULL)
        return NULL;
    if (table_init(t, n, n ? ends[n - 1] + 1 - n : 0) != 0) {
        free(t);
        return NULL;
    }
    const int64_t size = n ? ends[n - 1] + 1 : 0;
    for (int64_t i = 0, start = 0; i < n; start = ends[i++] + 1) {
        const int64_t id = table_intern(t, words + start, ends[i] - start, size - start);
        if (id != i) {
            *repeat = id < 0 ? -1 : i;
            sv_table_free(t);
            return NULL;
        }
    }
    return t;
}

/* ---- sentence composition ---- */

/* 1 when s[0:len] holds an ASCII capital; head is token_head of s */
static inline int has_capital(const unsigned char *s, int64_t len, uint64_t head)
{
    if (capitals(head))
        return 1;
    for (int64_t i = 8; i < len; i++)
        if (s[i] >= 'A' && s[i] <= 'Z')
            return 1;
    return 0;
}

/* The known ids of the line being composed and its row list, grown as lines
 * need: the scratch of sv_embed_text and sv_pair_dots */
typedef struct {
    int32_t *ids;
    int64_t *rows;
    int64_t ids_cap, rows_cap;
} compose_scratch;

/* 0 on success, and on failure nothing stays allocated */
static int scratch_init(compose_scratch *w)
{
    w->ids_cap = w->rows_cap = INITIAL_ITEMS;
    w->ids = malloc(sizeof *w->ids * (size_t)w->ids_cap);
    w->rows = malloc(sizeof *w->rows * (size_t)w->rows_cap);
    if (w->ids != NULL && w->rows != NULL)
        return 0;
    free(w->ids);
    free(w->rows);
    return -1;
}

static void scratch_free(compose_scratch *w)
{
    free(w->ids);
    free(w->rows);
}

/* The mean of the source rows of line s[0:len], written to y[0:dim].  Its
 * tokens split as in sv_encode_lines, and each is looked up in t as it is,
 * then ASCII-lowercased when it holds a capital; a token t lacks is skipped.
 * The known ids (t's ids are source's first rows), then the rows of the
 * line's windows of order 2..order in the order of sentence_ngrams, go into
 * one row list whose mean sum_rows writes, as the training step's context
 * mean; a line with no known token gets the zero vector.  Adds the line's
 * tokens to *tokens and returns its known-token count, or -1 when the
 * scratch lists cannot grow.  Inlined into both callers: a call per line
 * made sv_embed_text about 4% slower on 12-token lines at dim 100. */
static inline __attribute__((always_inline)) int64_t
compose_line(const sv_table *t, const char *source, int64_t dim, int64_t buckets, int32_t order,
             const unsigned char *s, int64_t len, compose_scratch *w, float *y, int64_t *tokens)
{
    /* a token takes a byte and, but for the line's last, a separator */
    int32_t *ids = grown(w->ids, &w->ids_cap, (len + 1) / 2, sizeof *ids);
    if (ids == NULL)
        return -1;
    w->ids = ids;
    int64_t n = 0, end;
    for (int64_t p = next_token(s, 0, len, &end); p < len; p = next_token(s, end, len, &end)) {
        const uint64_t head = token_head(s + p, end - p, len - p);
        int64_t id = table_find(t, s + p, end - p, len - p, head, 0);
        if (id < 0 && has_capital(s + p, end - p, head))
            id = table_find(t, s + p, end - p, len - p, fold_ascii(head), 1);
        if (id >= 0)
            ids[n++] = (int32_t)id;
        ++*tokens;
    }
    /* no window is longer than the line, whatever order is asked for */
    const int32_t top = n < order ? (int32_t)n : order;
    int64_t *rows = grown(w->rows, &w->rows_cap, n + ngram_count(n, top), sizeof *rows);
    if (rows == NULL)
        return -1;
    w->rows = rows;
    int64_t r = 0;
    for (; r < n; r++)
        rows[r] = ids[r];
    for (int32_t k = 2; k <= top; k++)
        for (int64_t i = 0; i + k <= n; i++)
            rows[r++] = ngram_row(ids + i, k, t->n_strings, buckets);
    if (r > 0)
        sum_rows(y, source, rows, NULL, r, dim);
    else
        memset(y, 0, sizeof(float) * (size_t)dim);
    return n;
}

/* compose_line of each line of data into row i of out: line i is
 * data[starts[i]:ends[i]], and the spans may lie anywhere in data; known[i]
 * is its known-token count.  source is byte-addressed (no alignment
 * assumed); out is an aligned n_lines x dim matrix.  Returns the number of
 * tokens of all lines, or -1 when the scratch lists cannot be allocated. */
int64_t sv_embed_text(const sv_table *t, const char *source, int64_t dim, int64_t buckets,
                      int32_t order, const unsigned char *data, const int64_t *starts,
                      const int64_t *ends, int64_t n_lines, float *out, int64_t *known)
{
    compose_scratch w;
    if (scratch_init(&w))
        return -1;
    int64_t tokens = 0;
    for (int64_t line = 0; line < n_lines && tokens >= 0; line++) {
        known[line] = compose_line(t, source, dim, buckets, order, data + starts[line],
                                   ends[line] - starts[line], &w, out + line * dim, &tokens);
        if (known[line] < 0)
            tokens = -1;
    }
    scratch_free(&w);
    return tokens;
}

/* The embed text of lines of data, composed and written one line at a time
 * with no vector stored but the line's own: compose_line writes line i
 * (data[starts[i]:ends[i]]) into one dim-sized scratch vector, as
 * sv_embed_text composes it, and put_row appends that vector's text to out,
 * as sv_format_rows writes it with sep ' ' and, when flags is nonzero, the
 * flag known[i] == 0.  Stops before the first line whose text might not fit
 * in the capacity left (G6_VALUE_BYTES * dim + 3 bytes).  known[i] is line
 * i's known-token count, done[0] the lines written and done[1] their bytes.
 * Returns the number of tokens of those lines, or -1 when the scratch cannot
 * be allocated. */
int64_t sv_embed_rows(const sv_table *t, const char *source, int64_t dim, int64_t buckets,
                      int32_t order, const unsigned char *data, const int64_t *starts,
                      const int64_t *ends, int64_t n_lines, char *out, int64_t *known,
                      int64_t capacity, int32_t flags, int64_t *done)
{
    compose_scratch w;
    float *y = malloc(sizeof *y * (size_t)dim);
    done[0] = done[1] = 0;
    if (y == NULL || scratch_init(&w)) {
        free(y);
        return -1;
    }
    int64_t tokens = 0, line = 0;
    char *p = out;
    for (; line < n_lines && capacity - (p - out) >= G6_VALUE_BYTES * dim + 3; line++) {
        known[line] = compose_line(t, source, dim, buckets, order, data + starts[line],
                                   ends[line] - starts[line], &w, y, &tokens);
        if (known[line] < 0) {
            tokens = -1;
            break;
        }
        p = put_row(p, y, dim, ' ', flags ? known[line] == 0 : -1);
    }
    done[0] = line;
    done[1] = p - out;
    scratch_free(&w);
    free(y);
    return tokens;
}

/* Doubles of one vector register (8 under AVX-512F, 4 under AVX, else 2), and
 * as many floats, which convert to one such vector */
#if defined(__AVX512F__)
#define VD 8
#elif defined(__AVX__)
#define VD 4
#else
#define VD 2
#endif
typedef double vd __attribute__((vector_size(8 * VD)));
typedef float vdf __attribute__((vector_size(4 * VD)));

static inline vd load_double(const float *p)
{
    vdf x;
    memcpy(&x, p, sizeof x);
    return __builtin_convertvector(x, vd);
}

/* dots[0:3] = a.a, b.b and a.b of the float32 rows a and b, in double.  Each
 * product is exact; lane k of a dot adds the products of elements i = k mod 8
 * in order to +0, and the lanes are summed in one fixed tree, ((0 + 1) +
 * (2 + 3)) + ((4 + 5) + (6 + 7)), so every width gives the same bits. */
static void row_dots(const float *a, const float *b, int64_t n, double *dots)
{
    vd aa[8 / VD] = {{0.0}}, bb[8 / VD] = {{0.0}}, ab[8 / VD] = {{0.0}};
    int64_t i = 0;
    for (; i + 8 <= n; i += 8)
        for (int j = 0; j < 8 / VD; j++) {
            const vd x = load_double(a + i + j * VD), y = load_double(b + i + j * VD);
            aa[j] += x * x;
            bb[j] += y * y;
            ab[j] += x * y;
        }
    double lanes[3][8];
    memcpy(lanes[0], aa, sizeof aa);
    memcpy(lanes[1], bb, sizeof bb);
    memcpy(lanes[2], ab, sizeof ab);
    for (int k = 0; i < n; i++, k++) {
        const double x = a[i], y = b[i];
        lanes[0][k] += x * x;
        lanes[1][k] += y * y;
        lanes[2][k] += x * y;
    }
    for (int d = 0; d < 3; d++) {
        const double *l = lanes[d];
        dots[d] = ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]));
    }
}

/* The similarity dots of n_pairs pairs of lines of data, with no vector
 * stored but the pair's own two: pair k's side a is line k and its side b
 * line n_pairs + k, where line i is data[starts[i]:ends[i]].  compose_line
 * writes side a, then side b, into a dim-sized scratch vector each, and
 * row_dots writes their a.a, b.b and a.b to dots[k], dots[n_pairs + k] and
 * dots[2 * n_pairs + k]; known[i] is line i's known-token count.  Returns
 * the number of tokens of all lines, or -1 when the scratch cannot be
 * allocated. */
int64_t sv_pair_dots(const sv_table *t, const char *source, int64_t dim, int64_t buckets,
                     int32_t order, const unsigned char *data, const int64_t *starts,
                     const int64_t *ends, int64_t n_pairs, double *dots, int64_t *known)
{
    compose_scratch w;
    float *sides = malloc(sizeof *sides * 2 * (size_t)dim);
    if (sides == NULL || scratch_init(&w)) {
        free(sides);
        return -1;
    }
    int64_t tokens = 0;
    for (int64_t a = 0, b = n_pairs; a < n_pairs; a++, b++) {
        known[a] = compose_line(t, source, dim, buckets, order, data + starts[a],
                                ends[a] - starts[a], &w, sides, &tokens);
        known[b] = known[a] < 0 ? -1
                                : compose_line(t, source, dim, buckets, order, data + starts[b],
                                               ends[b] - starts[b], &w, sides + dim, &tokens);
        if (known[b] < 0) {
            tokens = -1;
            break;
        }
        double d[3];
        row_dots(sides, sides + dim, dim, d);
        for (int j = 0; j < 3; j++)
            dots[j * n_pairs + a] = d[j];
    }
    scratch_free(&w);
    free(sides);
    return tokens;
}

/* ---- model files ---- */

/* The bytes that n vocabulary records of a model file, each a little-endian
 * uint32 length, that many bytes of word and a uint64 count, take from the
 * start of data[0:size], or -1 when they run past its end.  Reads the lengths
 * only. */
int64_t sv_vocab_span(const unsigned char *data, int64_t size, int64_t n)
{
    int64_t p = 0;
    for (int64_t i = 0; i < n; i++) {
        if (size - p < 12)
            return -1;
        p += 12 + (int64_t)load_word(data + p, 4, 0);
        if (p > size)
            return -1;
    }
    return p;
}

/* Copy the n records that sv_vocab_span measured at data: each word into
 * words, followed by '\n', the end of each (at its '\n') into ends and its
 * count into counts.  Returns 0, or 1 at a word that is empty or holds a byte
 * of SPACE, which no tokenizer yields. */
int sv_vocab_words(const unsigned char *data, int64_t n, unsigned char *words, int64_t *ends,
                   int64_t *counts)
{
    for (int64_t i = 0, q = 0; i < n; i++) {
        const int64_t len = (int64_t)load_word(data, 4, 0);
        data += 4;
        if (len == 0)
            return 1;
        for (int64_t j = 0; j < len; j++)
            if (SPACE[data[j]])
                return 1;
        memcpy(words + q, data, (size_t)len);
        q += len;
        ends[i] = q;
        words[q++] = '\n';
        counts[i] = (int64_t)load_word(data + len, 8, 0);
        data += len + 8;
    }
    return 0;
}
