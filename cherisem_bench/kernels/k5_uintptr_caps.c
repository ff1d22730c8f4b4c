// @CATEGORY: eval_kernels: uintptr_t round trips and capability intrinsics
// @EXPECT: exit 211
// Pointers go through uintptr_t arithmetic and back, get narrowed
// with cheri_bounds_set, and are inspected with the capability
// query intrinsics before each dereference.
#include <stdint.h>
#include <stdlib.h>
int main(void) {
    int *buf = malloc(64 * sizeof(int));
    for (int i = 0; i < 64; i++) buf[i] = 3 * i + 1;
    unsigned long sum = 0;
    for (int r = 0; r < 6; r++) {
        for (int i = 0; i < 64; i += 2) {
            uintptr_t u = (uintptr_t)buf;
            u = u + (uintptr_t)(i * sizeof(int));
            int *q = (int *)u;
            int *n = cheri_bounds_set(q, 2 * sizeof(int));
            sum += (unsigned long)(n[0] + n[1]);
            sum += (unsigned long)cheri_length_get(n);
            sum += (unsigned long)cheri_tag_get(n);
            sum += (unsigned long)(cheri_address_get(n) - cheri_address_get(buf));
        }
    }
    free(buf);
    return (int)(sum % 251u);
}
