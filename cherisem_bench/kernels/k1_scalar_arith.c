// @CATEGORY: eval_kernels: scalar integer arithmetic
// @EXPECT: exit 4
// An LCG mixing loop with shifts, masks, division and a branch: the
// evaluator's expression dispatch with almost no memory traffic.
int main(void) {
    unsigned int x = 12345u;
    unsigned int acc = 0u;
    for (int i = 0; i < 2000; i++) {
        x = x * 1103515245u + 12345u;
        unsigned int y = (x >> 16) & 32767u;
        if (y % 3u == 0u)
            acc += y / 7u;
        else
            acc ^= y << 3;
    }
    return (int)(acc % 251u);
}
