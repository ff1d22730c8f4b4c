// @CATEGORY: eval_kernels: malloc/free churn
// @EXPECT: exit 116
// A ring of live heap blocks; each step frees one and allocates a
// new block of a varying size, so the allocator reuses footprints
// and temporal profiles quarantine and sweep them.
#include <stdlib.h>
int main(void) {
    int *slots[32];
    for (int i = 0; i < 32; i++) {
        slots[i] = malloc(16);
        slots[i][0] = i;
    }
    unsigned int x = 7u;
    unsigned long sum = 0;
    for (int step = 0; step < 400; step++) {
        int k = step % 32;
        sum += (unsigned long)slots[k][0];
        free(slots[k]);
        x = x * 1103515245u + 12345u;
        int n = 4 + (int)((x >> 16) % 60u);
        slots[k] = malloc(n * sizeof(int));
        slots[k][0] = step;
        slots[k][n - 1] = n;
        sum += (unsigned long)slots[k][n - 1];
    }
    for (int i = 0; i < 32; i++)
        free(slots[i]);
    return (int)(sum % 251u);
}
